package netsim

import "sync"

// ForkPool recycles forked per-run networks across queries. Forking a
// template allocates ~N nodes, items, RNG streams, and a meter; under a
// query engine issuing thousands of runs against one deployment that
// allocator traffic dominates wall-clock cost without touching the paper's
// bits-per-node measure at all. The pool turns Fork into a reset-into-place
// on a previously forked instance: Get pops a free network and resets it
// for the new run seed (falling back to a real Fork when the pool is
// empty), and Put returns a finished run's network for reuse.
//
// A pooled network is bit-identical to a freshly forked one — same items,
// same RNG streams, zeroed meter, no fault plan — which is asserted by
// tests. The pool is safe for concurrent use by the engine's run workers.
type ForkPool struct {
	template *Network

	mu   sync.Mutex
	free []*Network
}

// NewForkPool returns an empty pool forking off template. The template
// itself is never handed out: every Get returns a private fork.
func NewForkPool(template *Network) *ForkPool {
	return &ForkPool{template: template}
}

// Get returns a run-ready network seeded with seed: a recycled fork when
// one is free, a fresh Fork of the template otherwise.
func (p *ForkPool) Get(seed uint64) *Network {
	p.mu.Lock()
	var nw *Network
	if n := len(p.free); n > 0 {
		nw = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if nw == nil {
		nw = p.template.Fork(seed)
		nw.pool = p
		return nw
	}
	nw.resetForRun(p.template, seed)
	return nw
}

// Put returns a network obtained from this pool to the free list. Networks
// from other pools (or none) are ignored, as is a double-Put of a network
// already in the free list.
func (p *ForkPool) Put(nw *Network) {
	if nw.pool != p {
		return
	}
	nw.Faults = nil
	p.mu.Lock()
	for _, f := range p.free {
		if f == nw {
			p.mu.Unlock()
			return
		}
	}
	p.free = append(p.free, nw)
	p.mu.Unlock()
}

// Free reports how many networks are currently pooled.
func (p *ForkPool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
