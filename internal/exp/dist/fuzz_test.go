package dist

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/nectar-repro/nectar/internal/exp"
)

// FuzzDistProtocol covers both directions of the coordinator–worker
// protocol. Arbitrary bytes from the other process must never panic any
// decoder, and whatever the encoders build must decode to the same
// values and consume the payload exactly.
func FuzzDistProtocol(f *testing.F) {
	f.Add(encodeHello([]byte(`{"quick":true}`), []specInfo{{"fig3", "ab12", 10}}),
		[]byte(`{"quick":true}`), "fig3", "ab12", uint32(10), "", uint32(4),
		uint32(1), uint32(2), int64(-7), int64(1500), []byte(`{"acc":1}`), "")
	f.Add(encodeResult(exp.UnitRef{Spec: 3, Unit: 4}, 9, nil, "boom"),
		[]byte{}, "", "", uint32(0), "drift", uint32(0),
		uint32(1<<31), uint32(0), int64(1)<<62, int64(0), []byte{}, "boom")
	f.Add(encodeRun(exp.UnitRef{Spec: 1, Unit: 2}, 5), []byte{0}, "k", "h", uint32(1<<32-1), "", uint32(1<<32-1),
		uint32(1<<32-1), uint32(1<<32-1), int64(-1), int64(-1), []byte{0xFF}, "")
	f.Add(encodeHelloAck("", 2), []byte(nil), "", "", uint32(0), "", uint32(0),
		uint32(0), uint32(0), int64(0), int64(0), []byte(nil), "")
	f.Fuzz(func(t *testing.T, payload, blob []byte, key, fp string, units uint32, refuse string, jobs uint32,
		spec, unit uint32, seed, elapsed int64, data []byte, errText string) {
		// Adversarial input: every decoder must fail cleanly or succeed.
		_, _, _ = decodeHello(payload)
		_, _, _ = decodeHelloAck(payload)
		_, _, _ = decodeRun(payload)
		_, _, _, _, _ = decodeResult(payload)

		rows := []specInfo{{key, fp, int(units)}, {fp, key, 0}}
		gotBlob, gotRows, err := decodeHello(encodeHello(blob, rows))
		if err != nil {
			t.Fatalf("hello: %v", err)
		}
		if !bytes.Equal(gotBlob, blob) || !reflect.DeepEqual(gotRows, rows) {
			t.Fatalf("hello round trip: blob %q rows %+v, want %q %+v", gotBlob, gotRows, blob, rows)
		}

		gotRefuse, gotJobs, err := decodeHelloAck(encodeHelloAck(refuse, int(jobs)))
		if err != nil || gotRefuse != refuse || gotJobs != int(jobs) {
			t.Fatalf("ack round trip: %q %d %v, want %q %d", gotRefuse, gotJobs, err, refuse, jobs)
		}

		u := exp.UnitRef{Spec: int(spec), Unit: int(unit)}
		gotU, gotSeed, err := decodeRun(encodeRun(u, seed))
		if err != nil || gotU != u || gotSeed != seed {
			t.Fatalf("run round trip: %+v %d %v, want %+v %d", gotU, gotSeed, err, u, seed)
		}

		gotU, gotElapsed, gotData, gotErr, err := decodeResult(encodeResult(u, elapsed, data, errText))
		if err != nil || gotU != u || gotElapsed != elapsed || gotErr != errText {
			t.Fatalf("result round trip: %+v %d %q %v, want %+v %d %q", gotU, gotElapsed, gotErr, err, u, elapsed, errText)
		}
		wantData := data
		if errText != "" {
			wantData = nil // an error result carries no record
		}
		if !bytes.Equal(gotData, wantData) {
			t.Fatalf("result data %q, want %q", gotData, wantData)
		}
	})
}
