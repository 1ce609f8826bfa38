package tcpnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzReadFrame feeds ReadFrame a frame header claiming size bytes
// followed by payload, over an in-memory net.Pipe. A claim within the
// bound returns exactly the claimed bytes and leaves the rest on the
// connection; a claim over the bound returns an error without reading
// the payload, which must still be on the connection afterwards.
//
// A stream that ends inside the frame is TestReadFrameShortStream's:
// whether the reader meets the writer's close before or while it waits
// is up to the scheduler, and net.Pipe takes different branches for the
// two, which would give the fuzzer coverage that does not reproduce.
func FuzzReadFrame(f *testing.F) {
	f.Add(uint32(5), []byte("hello"), uint16(0))
	f.Add(uint32(3), []byte("hello"), uint16(8))
	f.Add(uint32(5), []byte("hello"), uint16(5))
	f.Add(uint32(6), []byte("hello"), uint16(5))
	f.Add(uint32(1<<32-1), []byte{0xFF, 0xFF}, uint16(0))
	f.Add(uint32(0), []byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, size uint32, payload []byte, max uint16) {
		bound := uint32(max)
		if bound == 0 {
			bound = maxFrame // ReadFrame's default for max ≤ 0
		}
		oversized := size > bound
		if !oversized && int(size) > len(payload) {
			t.Skip("the stream ends inside the frame")
		}
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		if err := b.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		wrote := make(chan error, 1)
		go func() {
			// The pipe is synchronous: Write returns once the reader has
			// consumed every byte.
			_, err := a.Write(append(binary.BigEndian.AppendUint32(nil, size), payload...))
			wrote <- err
		}()
		got, err := ReadFrame(b, int(max))
		consumed := int(size)
		if oversized {
			consumed = 0
		}
		rest := make([]byte, len(payload)-consumed)
		if _, rerr := io.ReadFull(b, rest); rerr != nil {
			t.Fatalf("reading the bytes after the frame: %v", rerr)
		}
		if werr := <-wrote; werr != nil {
			t.Fatalf("writing the frame: %v", werr)
		}
		switch {
		case oversized:
			if err == nil {
				t.Fatalf("size %d over bound %d accepted", size, bound)
			}
			if !bytes.Equal(rest, payload) {
				t.Fatal("the oversized frame's payload was read")
			}
		default:
			if err != nil {
				t.Fatalf("frame of %d bytes: %v", size, err)
			}
			if !bytes.Equal(got, payload[:size]) || !bytes.Equal(rest, payload[size:]) {
				t.Fatalf("frame split wrong: got %d bytes and %d after, want %d and %d",
					len(got), len(rest), size, len(payload)-int(size))
			}
		}
	})
}

// TestReadFrameShortStream: a stream that ends inside a frame within the
// bound is an error, not a short frame.
func TestReadFrameShortStream(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write(append(binary.BigEndian.AppendUint32(nil, 10), "abc"...))
		a.Close()
		wrote <- err
	}()
	if got, err := ReadFrame(b, 0); err == nil {
		t.Fatalf("frame claiming 10 bytes of a 3-byte stream returned %q", got)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("writing the frame: %v", err)
	}
}
