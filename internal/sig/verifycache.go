package sig

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"github.com/nectar-repro/nectar/internal/ids"
)

// maxCachedSigSize bounds the fixed-width signature slot of a cache key.
// Every provided scheme fits (Ed25519 and HMAC tags are 64 bytes); larger
// signatures simply bypass the cache.
const maxCachedSigSize = 64

// minCachedSigSize is the shortest signature the cache memoizes. A
// shorter one cannot be a digest of its message — slim's 4-byte signer
// tags are the case in point — so one key would cover every message the
// signer signs, and memoizing them would store every message to save a
// check that costs less than the lookup.
const minCachedSigSize = 8

// verifyKey identifies a (signer, signature) pair. The signed message is
// not part of the key — it is compared byte-for-byte against the stored
// entry on lookup, which is both cheaper than hashing the message into the
// key and immune to hash collisions an adversary might engineer.
type verifyKey struct {
	signer ids.NodeID
	sigLen uint8
	sig    [maxCachedSigSize]byte
}

// verifyEntry records one memoized verification: the exact message the
// signature was checked against and the verifier's verdict.
type verifyEntry struct {
	msg []byte
	ok  bool
}

// overflowKey indexes the second and later messages verified under one
// verifyKey by a hash of the message. The hash only narrows the search:
// a hit still requires an exact message match.
type overflowKey struct {
	verifyKey
	msgHash uint64
}

// overflowEntry is a verifyEntry in the overflow index; next chains
// messages whose overflowKeys collide.
type overflowEntry struct {
	verifyEntry
	next *overflowEntry
}

// VerifyCache memoizes signature verifications. Verification is a pure
// function of (signer, message, signature) for every deterministic scheme
// (Ed25519, HMAC, and the insecure ablation all qualify), so returning a
// recorded verdict is semantics-preserving — flooding protocols re-verify
// the same hop signatures at every recipient, and the memo collapses that
// Θ(n·deg) repetition to one real verification per distinct signature
// (DESIGN.md §9).
//
// VerifyCache is safe for concurrent use; share one per simulated trial
// (trial-level parallelism then stays contention-free, since distinct
// trials use distinct caches). Soundness does not depend on hashing: a
// hit requires the stored message to equal the queried message exactly,
// so colliding keys merely fall through to the real verifier.
//
// The hit/miss counters are a pure function of the multiset of queries,
// whatever the goroutine schedule: every distinct (signer, sig, msg)
// triple is stored exactly once and counts exactly one miss, and every
// other query counts a hit — including a query that verified concurrently
// with the one that stored its triple first.
type VerifyCache struct {
	mu sync.RWMutex
	m  map[verifyKey]verifyEntry
	// more holds the second and later messages verified under one key: a
	// signature replayed over a different message (an adversarial or
	// malformed chain), or a scheme whose signatures do not depend on the
	// message (the insecure ablation). It stays nil until first needed.
	// The hash seed is random per cache, so no input can be built to
	// collide.
	more   map[overflowKey]overflowEntry
	seed   maphash.Seed
	hits   atomic.Int64
	misses atomic.Int64
}

// NewVerifyCache returns an empty cache.
func NewVerifyCache() *VerifyCache {
	return &VerifyCache{m: make(map[verifyKey]verifyEntry), seed: maphash.MakeSeed()}
}

// Verify checks sg over msg by signer, consulting the memo first. It
// reports the verdict and whether it was served from the cache. A nil
// receiver always delegates to v, so call sites can plumb an optional
// cache without branching.
func (c *VerifyCache) Verify(v Verifier, signer ids.NodeID, msg, sg []byte) (ok, hit bool) {
	if c == nil || len(sg) < minCachedSigSize || len(sg) > maxCachedSigSize {
		return v.Verify(signer, msg, sg), false
	}
	k := verifyKey{signer: signer, sigLen: uint8(len(sg))}
	copy(k.sig[:], sg)
	c.mu.RLock()
	ok, found := c.lookup(k, msg)
	c.mu.RUnlock()
	if found {
		c.hits.Add(1)
		return ok, true
	}
	ok = v.Verify(signer, msg, sg)
	// Re-check under the write lock: another goroutine may have stored the
	// same triple while this one verified. The first to store it owns the
	// miss; the rest count a hit.
	c.mu.Lock()
	if _, found = c.lookup(k, msg); !found {
		c.store(k, msg, ok)
	}
	c.mu.Unlock()
	if found {
		c.hits.Add(1)
		return ok, true
	}
	c.misses.Add(1)
	return ok, false
}

// lookup returns the verdict recorded for (k, msg). Callers hold mu.
func (c *VerifyCache) lookup(k verifyKey, msg []byte) (ok, found bool) {
	e, exists := c.m[k]
	if !exists {
		return false, false
	}
	if bytes.Equal(e.msg, msg) {
		return e.ok, true
	}
	if c.more == nil {
		return false, false
	}
	o, exists := c.more[c.overflowKey(k, msg)]
	for p := &o; exists && p != nil; p = p.next {
		if bytes.Equal(p.msg, msg) {
			return p.ok, true
		}
	}
	return false, false
}

// overflowKey is (k, msg)'s key in the overflow index.
func (c *VerifyCache) overflowKey(k verifyKey, msg []byte) overflowKey {
	return overflowKey{verifyKey: k, msgHash: maphash.Bytes(c.seed, msg)}
}

// store records a verdict for (k, msg), which lookup just missed. The
// message is copied: verification inputs are built in reusable buffers
// (VerifyChain extends one in place). Callers hold mu for writing.
func (c *VerifyCache) store(k verifyKey, msg []byte, ok bool) {
	e := verifyEntry{msg: append([]byte(nil), msg...), ok: ok}
	if _, exists := c.m[k]; !exists {
		c.m[k] = e
		return
	}
	if c.more == nil {
		c.more = make(map[overflowKey]overflowEntry)
	}
	key := c.overflowKey(k, msg)
	o, collides := c.more[key]
	if collides {
		// Keep the indexed entry in place and chain the new one behind it.
		o.next = &overflowEntry{verifyEntry: e, next: o.next}
	} else {
		o = overflowEntry{verifyEntry: e}
	}
	c.more[key] = o
}

// Stats returns the cumulative hit and miss counts.
func (c *VerifyCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of memoized verdicts.
func (c *VerifyCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := len(c.m)
	for _, o := range c.more {
		for p := &o; p != nil; p = p.next {
			n++
		}
	}
	return n
}

// cachedVerifier decorates a Verifier with a VerifyCache.
type cachedVerifier struct {
	v Verifier
	c *VerifyCache
}

func (cv cachedVerifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	ok, _ := cv.c.Verify(cv.v, signer, msg, sg)
	return ok
}

func (cv cachedVerifier) SigSize() int { return cv.v.SigSize() }

// Cached returns a Verifier that consults c before delegating to v. A nil
// cache returns v unchanged.
func Cached(v Verifier, c *VerifyCache) Verifier {
	if c == nil {
		return v
	}
	return cachedVerifier{v: v, c: c}
}
