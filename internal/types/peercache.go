package types

// PeerCache is the two-level bounded cache of the credit channel's
// chain-reference protocol: per peer, an LRU of values keyed by content
// digest. Per-peer bounding is the abuse containment — one peer's
// definitions can never evict another's — and the peer map itself is
// bounded by the membership gate that admits senders (the key registry).
//
// A PeerCache is NOT synchronized; the owning protocol state guards it
// with the lock that already covers its reference bookkeeping.
type PeerCache[V any] struct {
	capacity int
	m        map[ReplicaID]*LRU[Digest, V]
}

// NewPeerCache returns an empty cache whose per-peer LRUs hold at most
// capacity entries each.
func NewPeerCache[V any](capacity int) *PeerCache[V] {
	return &PeerCache[V]{capacity: capacity, m: make(map[ReplicaID]*LRU[Digest, V])}
}

// SetCapacity changes the per-peer capacity for LRUs created from now on
// (a test hook — call it before any traffic; existing LRUs keep theirs).
func (c *PeerCache[V]) SetCapacity(n int) { c.capacity = n }

// lru returns peer's LRU, creating it on first use.
func (c *PeerCache[V]) lru(peer ReplicaID) *LRU[Digest, V] {
	l, ok := c.m[peer]
	if !ok {
		l = NewLRU[Digest, V](c.capacity)
		c.m[peer] = l
	}
	return l
}

// Put caches v for peer under d, marking it most recently used.
func (c *PeerCache[V]) Put(peer ReplicaID, d Digest, v V) { c.lru(peer).Put(d, v) }

// Intern returns the canonical value for (peer, d): the cached one when
// present (touched), otherwise v after caching it — so every holder of
// one peer's chain shares a single backing.
func (c *PeerCache[V]) Intern(peer ReplicaID, d Digest, v V) V {
	l := c.lru(peer)
	if cached, ok := l.Get(d); ok {
		return cached
	}
	l.Put(d, v)
	return v
}

// Get resolves (peer, d), marking it most recently used on a hit. An
// unknown peer allocates nothing.
func (c *PeerCache[V]) Get(peer ReplicaID, d Digest) (V, bool) {
	l, ok := c.m[peer]
	if !ok {
		var zero V
		return zero, false
	}
	return l.Get(d)
}

// GetAny resolves d against every peer's section, touching the entry on a
// hit. Sound only for content-addressed caches — the chain-reference
// protocol recomputes each digest from the learned content, so a chain
// cached under ANY peer is the chain, whoever references it. Cost is one
// LRU probe per known peer (membership-bounded); the lazy credit-chain
// definitions use it so a chain defined once resolves references from
// every peer.
func (c *PeerCache[V]) GetAny(d Digest) (V, bool) {
	for _, l := range c.m {
		if v, ok := l.Get(d); ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// HasPeer reports whether a per-peer LRU exists for peer (for tests
// asserting that membership-gated senders allocate nothing).
func (c *PeerCache[V]) HasPeer(peer ReplicaID) bool {
	_, ok := c.m[peer]
	return ok
}
