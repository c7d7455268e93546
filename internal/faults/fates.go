package faults

import (
	"math/bits"
	"slices"

	"sensoragg/internal/topology"
)

// LinkFates is the fate of every link of one graph and its spanning tree
// under a plan as it stands. A plan's links change at most once — when a
// mid-flight link failure strikes — so the fates are derived once per plan
// epoch and every repair and completeness check of that epoch reads the
// same copy instead of hashing each link again. A LinkFates is reusable
// scratch that a caller parks beside its network (the tree engines keep
// one per run network): Of re-derives it in place only when the plan, its
// epoch, the graph or the tree changed.
type LinkFates struct {
	// stamp and mid key the derived fates: the plan's stamp, and whether
	// its mid-flight link failures were in force.
	stamp uint64
	mid   bool
	g     *topology.Graph
	t     *topology.Tree
	// offGraph lists the nodes whose tree edge is no graph edge (a
	// hand-built tree may hang a node off a non-neighbour), for g and t.
	offGraph []topology.NodeID
	// any is false when every link is alive (no LinkFail, no fired
	// MidLinkFail, as LinkAlive itself decides): nothing else is derived.
	any bool
	// dead holds u<<32|v for both directions of every dead graph link, in
	// ascending order, and deadNbr each entry's v. Bit u of touched is set
	// when u has a dead link; the r-th such node's entries start at
	// deadStart[r], and rank[w] counts the touched nodes below word w.
	dead      []uint64
	deadNbr   []topology.NodeID
	deadStart []int32
	touched   []uint64
	rank      []int32
	// Bit c of up is set when the link from c to its tree parent is dead.
	up []uint64
}

// Of returns f holding the fates of g's links and t's edges under p as it
// stands, deriving them first unless they are the ones in place: each
// undirected graph link is hashed once, and a tree edge's fate is marked
// from its graph link's, so no per-edge search runs.
func (f *LinkFates) Of(p *Plan, g *topology.Graph, t *topology.Tree) *LinkFates {
	mid := p.fired && p.spec.MidLinkFail > 0
	if f.stamp == p.stamp && f.mid == mid && f.g == g && f.t == t {
		return f
	}
	if f.g != g || f.t != t {
		f.g, f.t = g, t
		f.offGraph = f.offGraph[:0]
		for c, par := range t.Parent {
			if _, ok := slices.BinarySearch(g.Adj[c], par); par >= 0 && !ok {
				f.offGraph = append(f.offGraph, topology.NodeID(c))
			}
		}
	}
	f.stamp, f.mid = p.stamp, mid
	f.any = p.spec.LinkFail > 0 || mid
	if !f.any {
		return f
	}
	words := (len(g.Adj) + 63) / 64
	f.touched, f.up = resize(f.touched, words), resize(f.up, words)
	f.dead = f.dead[:0]
	for u, nbrs := range g.Adj {
		uid := topology.NodeID(u)
		for _, v := range nbrs {
			if v <= uid || !p.linkDead(uid, v, mid) {
				continue
			}
			f.dead = append(f.dead, uint64(uid)<<32|uint64(v), uint64(v)<<32|uint64(uid))
			setBit(f.touched, uid)
			setBit(f.touched, v)
			switch {
			case t.Parent[v] == uid:
				setBit(f.up, v)
			case t.Parent[uid] == v:
				setBit(f.up, uid)
			}
		}
	}
	for _, c := range f.offGraph {
		if !p.LinkAlive(t.Parent[c], c) {
			setBit(f.up, c)
		}
	}
	slices.Sort(f.dead)
	f.deadNbr, f.deadStart = f.deadNbr[:0], f.deadStart[:0]
	for i, e := range f.dead {
		if i == 0 || e>>32 != f.dead[i-1]>>32 {
			f.deadStart = append(f.deadStart, int32(i))
		}
		f.deadNbr = append(f.deadNbr, topology.NodeID(uint32(e)))
	}
	f.deadStart = append(f.deadStart, int32(len(f.dead)))
	if cap(f.rank) < words {
		f.rank = make([]int32, words)
	}
	f.rank = f.rank[:words]
	below := 0
	for w, word := range f.touched {
		f.rank[w] = int32(below)
		below += bits.OnesCount64(word)
	}
	return f
}

// DeadNeighbors lists u's graph neighbours across a dead link, in
// ascending order: a walk over u's (sorted) adjacency list skips an entry
// iff it is the next one listed here. The slice is shared scratch.
func (f *LinkFates) DeadNeighbors(u topology.NodeID) []topology.NodeID {
	if !f.any || !hasBit(f.touched, u) {
		return nil
	}
	w := f.touched[u/64] & (1<<(u%64) - 1)
	r := int(f.rank[u/64]) + bits.OnesCount64(w)
	return f.deadNbr[f.deadStart[r]:f.deadStart[r+1]]
}

// UpAlive reports whether the link from node c to its tree parent is
// alive. c must not be the tree root.
func (f *LinkFates) UpAlive(c topology.NodeID) bool {
	return !f.any || !hasBit(f.up, c)
}

// resize returns buf cleared and resized to n words, reallocating only when
// its capacity falls short.
func resize(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func setBit(set []uint64, u topology.NodeID) { set[u/64] |= 1 << (u % 64) }

func hasBit(set []uint64, u topology.NodeID) bool { return set[u/64]&(1<<(u%64)) != 0 }
