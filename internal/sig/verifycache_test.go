package sig

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

func TestVerifyCacheMemoizes(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msg := []byte("the payload")
	sg := scheme.SignerFor(2).Sign(msg)

	ok, hit := c.Verify(v, 2, msg, sg)
	if !ok || hit {
		t.Fatalf("first verify: ok=%v hit=%v, want true/false", ok, hit)
	}
	ok, hit = c.Verify(v, 2, msg, sg)
	if !ok || !hit {
		t.Fatalf("second verify: ok=%v hit=%v, want true/true", ok, hit)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

func TestVerifyCacheNegativeVerdictsAreCached(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	bad := make([]byte, 64)
	for i := 0; i < 2; i++ {
		if ok, _ := c.Verify(v, 1, []byte("m"), bad); ok {
			t.Fatal("forged signature verified")
		}
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("negative verdict not served from cache (hits=%d)", hits)
	}
}

// TestVerifyCacheKeyCollisionIsSound: a (signer, sig) key already bound to
// one message must not answer for a different message — the adversarial
// replay case. The lookup compares messages exactly, so the second query
// falls through to the real verifier and reports the correct verdict.
func TestVerifyCacheKeyCollisionIsSound(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msgA, msgB := []byte("message A"), []byte("message B")
	sg := scheme.SignerFor(3).Sign(msgA)

	if ok, _ := c.Verify(v, 3, msgA, sg); !ok {
		t.Fatal("valid signature rejected")
	}
	// Same signer+sig, different message: must NOT be served as a hit.
	ok, hit := c.Verify(v, 3, msgB, sg)
	if ok {
		t.Error("replayed signature accepted for a different message")
	}
	if hit {
		t.Error("mismatched message served from cache")
	}
	// Both bindings are memoized, each with its own verdict.
	if ok, hit := c.Verify(v, 3, msgA, sg); !ok || !hit {
		t.Errorf("original entry clobbered: ok=%v hit=%v", ok, hit)
	}
	if ok, hit := c.Verify(v, 3, msgB, sg); ok || !hit {
		t.Errorf("second message under the key: ok=%v hit=%v, want false/true", ok, hit)
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
}

// TestVerifyCacheDoesNotAliasCallerBuffers: VerifyChain extends its
// signing-input buffer in place after handing it to the verifier, so the
// cache must store a copy, not an alias.
func TestVerifyCacheDoesNotAliasCallerBuffers(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	buf := []byte("original msg bytes")
	sg := scheme.SignerFor(0).Sign(buf)
	if ok, _ := c.Verify(v, 0, buf, sg); !ok {
		t.Fatal("valid signature rejected")
	}
	for i := range buf {
		buf[i] = 'X' // caller reuses the buffer
	}
	if ok, hit := c.Verify(v, 0, []byte("original msg bytes"), sg); !ok || !hit {
		t.Errorf("mutating the caller buffer corrupted the cache: ok=%v hit=%v", ok, hit)
	}
}

func TestVerifyCacheNilAndOversized(t *testing.T) {
	scheme := NewInsecure(4, 128) // 128-byte sigs exceed the cache slot
	v := scheme.Verifier()
	var nilCache *VerifyCache
	msg := []byte("m")
	sg := scheme.SignerFor(1).Sign(msg)
	if ok, hit := nilCache.Verify(v, 1, msg, sg); !ok || hit {
		t.Errorf("nil cache: ok=%v hit=%v, want true/false", ok, hit)
	}
	if hits, misses := nilCache.Stats(); hits != 0 || misses != 0 {
		t.Error("nil cache reported activity")
	}
	if nilCache.Len() != 0 {
		t.Error("nil cache reported entries")
	}
	c := NewVerifyCache()
	for i := 0; i < 2; i++ {
		if ok, hit := c.Verify(v, 1, msg, sg); !ok || hit {
			t.Errorf("oversized sig round %d: ok=%v hit=%v, want true/false", i, ok, hit)
		}
	}
	if c.Len() != 0 {
		t.Error("oversized signature was cached")
	}
	// Slim's 4-byte signer tags are too short to identify a message.
	slim := NewSlim(4)
	tag := slim.SignerFor(1).Sign(msg)
	for i := 0; i < 2; i++ {
		if ok, hit := c.Verify(slim.Verifier(), 1, msg, tag); !ok || hit {
			t.Errorf("slim tag round %d: ok=%v hit=%v, want true/false", i, ok, hit)
		}
	}
	if hits, misses := c.Stats(); c.Len() != 0 || hits != 0 || misses != 0 {
		t.Errorf("slim tag was cached: len=%d hits=%d misses=%d", c.Len(), hits, misses)
	}
}

func TestCachedVerifierWrapping(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	if got := Cached(v, nil); got != v {
		t.Error("Cached(v, nil) should return v unchanged")
	}
	c := NewVerifyCache()
	cv := Cached(v, c)
	if cv.SigSize() != v.SigSize() {
		t.Errorf("SigSize %d, want %d", cv.SigSize(), v.SigSize())
	}
	msg := []byte("m")
	sg := scheme.SignerFor(2).Sign(msg)
	if !cv.Verify(2, msg, sg) || !cv.Verify(2, msg, sg) {
		t.Fatal("cached verifier rejected a valid signature")
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("wrapped verifier hits = %d, want 1", hits)
	}
}

// TestVerifyCacheConcurrent exercises the cache from many goroutines (the
// engine-parallel configuration); run under -race in CI.
func TestVerifyCacheConcurrent(t *testing.T) {
	scheme := NewHMAC(8, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msgs := make([][]byte, 8)
	sigs := make([][]byte, 8)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 0xBE, 0xEF}
		sigs[i] = scheme.SignerFor(ids.NodeID(i)).Sign(msgs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := round % len(msgs)
				if ok, _ := c.Verify(v, ids.NodeID(i), msgs[i], sigs[i]); !ok {
					t.Error("valid signature rejected")
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != len(msgs) {
		t.Errorf("cache holds %d entries, want %d", c.Len(), len(msgs))
	}
}

// barrierVerifier blocks every Verify call until `parties` calls have
// entered, then releases them all at once; later calls pass straight
// through. It accepts exactly the messages equal to good.
type barrierVerifier struct {
	parties int32
	entered *atomic.Int32
	release chan struct{}
	good    []byte
}

func (b barrierVerifier) Verify(_ ids.NodeID, msg, _ []byte) bool {
	if b.entered.Add(1) == b.parties {
		close(b.release)
	}
	<-b.release
	return bytes.Equal(msg, b.good)
}

func (barrierVerifier) SigSize() int { return 64 }

// TestVerifyCacheCountersScheduleIndependent forces every goroutine to miss
// the read-locked lookup before any of them stores a verdict — the
// interleaving two engine workers hit when they relay the same signature
// in one round. Misses must still equal the number of distinct (signer,
// sig, msg) triples, and every other query must count a hit, so the
// counters that reach results depend only on the queries made.
func TestVerifyCacheCountersScheduleIndependent(t *testing.T) {
	sg := bytes.Repeat([]byte{7}, 64)
	msgA, msgB := []byte("message A"), []byte("message B")
	for _, tc := range []struct {
		name string
		msgs [][]byte
	}{
		{"one-message", [][]byte{msgA}},
		{"two-messages-one-sig", [][]byte{msgA, msgB}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const goroutines = 8
			v := barrierVerifier{parties: goroutines, entered: new(atomic.Int32), release: make(chan struct{}), good: msgA}
			c := NewVerifyCache()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				msg := tc.msgs[g%len(tc.msgs)]
				wg.Add(1)
				go func() {
					defer wg.Done()
					if ok, _ := c.Verify(v, 3, msg, sg); ok != bytes.Equal(msg, msgA) {
						t.Errorf("verdict for %q = %v", msg, ok)
					}
				}()
			}
			wg.Wait()
			// Serial re-queries of every triple are all hits.
			for _, msg := range tc.msgs {
				if ok, hit := c.Verify(v, 3, msg, sg); !hit || ok != bytes.Equal(msg, msgA) {
					t.Errorf("re-query %q: ok=%v hit=%v, want a cached verdict", msg, ok, hit)
				}
			}
			total := int64(goroutines + len(tc.msgs))
			hits, misses := c.Stats()
			if misses != int64(len(tc.msgs)) || hits != total-misses {
				t.Errorf("hits/misses = %d/%d, want %d/%d", hits, misses, total-int64(len(tc.msgs)), len(tc.msgs))
			}
			if c.Len() != len(tc.msgs) {
				t.Errorf("cache holds %d entries, want %d", c.Len(), len(tc.msgs))
			}
		})
	}
}
