package spantree

// A lane is one bottom-up pass of a convergecast: level by level, a run of
// entries on a two-level ring of its own, level l in half l&1. Entry t's
// children are the next unclaimed entries of the level below, so a
// child's slot is a running count, never looked up.
//
// The sequential schedule is one lane over the whole view. A team sweep
// runs the view's partition: one lane per member over its frontier
// subtrees, then the top part's lane. A member lane's level starts with
// the frontier roots it owns on that level, whose partials go to their
// frontier slots instead of the ring; the top lane lists the top part and
// the frontier roots hanging off it in position order, and copies each
// frontier root's partial from its slot into the ring.
type lane struct {
	// at[t] is entry t's view position, or -1-position for a frontier root
	// the top lane copies in; nil means entry t is position t.
	at []int32
	// lv[l] is level l's first entry, lv[levels] the lane's end.
	lv []int32
	// fl[l] counts the frontier roots above level l (nil without a
	// partition); frontier root f's partial is parked in slot fb+f.
	fl []int32
	fb int
	// ring is the lane's first slot; each ring half has width slots.
	ring, width int
	// a and b bound the frontier roots [a, b) a member lane sweeps.
	a, b int
}

// level resolves level l of the lane: its entries [lo, hi), the base that
// puts entry t's partial in slot mine+t, the slot of the level's first
// child partial, the level's first frontier index and how many of its
// leading entries are frontier roots.
func (ln *lane) level(l int) (lo, hi, mine, next, f, nr int) {
	lo, hi = int(ln.lv[l]), int(ln.lv[l+1])
	if ln.fl != nil {
		f = max(ln.a, int(ln.fl[l]))
		nr = max(0, min(ln.b, int(ln.fl[l+1]))-f)
	}
	mine = ln.ring + (l&1)*ln.width - lo - nr
	next = ln.ring + ((l+1)&1)*ln.width
	return lo, hi, mine, next, f, nr
}

// entry returns entry t's position (negative for a frontier root to copy
// in) and ring slot.
func (ln *lane) entry(t, mine int) (i, slot int) {
	if ln.at == nil {
		return t, mine + t
	}
	return int(ln.at[t]), mine + t
}

// partition is a view's subtree schedule for a team of w members. The top
// part holds the nodes whose subtree exceeds ⌈N/4w⌉ nodes: it contains the
// root, since a parent's subtree outweighs its child's. Every other child
// of a top node roots a frontier subtree of at most ⌈N/4w⌉ nodes, and the
// frontier subtrees, in position order, are cut into w contiguous runs of
// about equal node count, one per member — so no member's share exceeds
// its even share by more than a quarter. It lives in the network's scratch
// and is rebuilt in place when the view or team size changes, so views
// and operations reuse one set of buffers: one int32 per node for the
// member lanes, one per top node and frontier root for the top lane.
type partition struct {
	stamp uint64 // the viewSched it was built from
	w     int
	ents  []int32 // the member lanes' entries, member after member
	top   []int32 // the top lane's entries
	lv    []int32 // each lane's level bounds, levels+1 per lane
	fl    []int32
	lanes []lane // w member lanes, then the top lane
	slots int
}

// of returns the lanes of s's partition for a team of w, building it
// first unless it is the one in place.
func (p *partition) of(s *viewSched, w int) []lane {
	if p.stamp != s.stamp || p.w != w {
		p.build(s, w)
		p.stamp, p.w = s.stamp, w
	}
	return p.lanes
}

func (p *partition) build(s *viewSched, w int) {
	cs, n, levels := s.cs, len(s.cs)-1, len(s.bounds)-1
	// Subtree sizes, bottom-up, in the buffer the member entries later
	// overwrite.
	size := grow(p.ents, n)
	for i := n - 1; i >= 0; i-- {
		sz := int32(1)
		for _, c := range size[cs[i]:cs[i+1]] {
			sz += c
		}
		size[i] = sz
	}
	limit := int32((n + 4*w - 1) / (4 * w))
	p.lv = grow(p.lv, (w+1)*(levels+1))
	p.fl = grow(p.fl, levels+1)
	if cap(p.lanes) < w+1 {
		p.lanes = make([]lane, w+1)
	}
	p.lanes = p.lanes[:w+1]

	// The top lane, level by level: the root, then the children of each
	// level's top nodes.
	tlv := p.lv[w*(levels+1):]
	top := append(p.top[:0], 0)
	if size[0] <= limit {
		top[0] = -1
	}
	frontier, width, topNodes := 0, 0, 0
	for l, lo := 0, 0; l < levels; l++ {
		hi := len(top)
		tlv[l], p.fl[l] = int32(lo), int32(frontier)
		width = max(width, hi-lo)
		for _, i := range top[lo:hi] {
			if i < 0 {
				frontier++
				continue
			}
			topNodes++
			for j := cs[i]; j < cs[i+1]; j++ {
				if size[j] > limit {
					top = append(top, j)
				} else {
					top = append(top, -1-j)
				}
			}
		}
		lo = hi
	}
	tlv[levels], p.fl[levels] = int32(len(top)), int32(frontier)
	p.top = top

	// Cut the frontier subtrees into w runs: subtree f goes to the member
	// whose even share holds its midpoint.
	total, cum, f, m := n-topNodes, 0, 0, 0
	for _, i := range top {
		if i >= 0 {
			continue
		}
		sz := int(size[-1-i])
		for to := min(w-1, (2*cum+sz)*w/(2*total)); m < to; {
			p.lanes[m].b = f
			m++
			p.lanes[m].a = f
		}
		cum += sz
		f++
	}
	p.lanes[0].a = 0
	for ; m < w-1; m++ {
		p.lanes[m].b = f
		p.lanes[m+1].a = f
	}
	p.lanes[w-1].b = f

	// Each member's lane: on every level, the frontier roots it owns, then
	// the children of the level above's entries. The subtree sizes are no
	// longer needed.
	ents := size[:0]
	ring := 2 * width
	for m := range w {
		ln := &p.lanes[m]
		lv := p.lv[m*(levels+1) : (m+1)*(levels+1)]
		mw, plo, phi := 0, 0, 0
		for l := 0; l < levels; l++ {
			lv[l] = int32(len(ents))
			f := int(p.fl[l])
			for _, i := range top[tlv[l]:tlv[l+1]] {
				if i < 0 {
					if f >= ln.a && f < ln.b {
						ents = append(ents, -1-i)
					}
					f++
				}
			}
			roots := len(ents) - int(lv[l])
			for _, i := range ents[plo:phi] {
				for j := cs[i]; j < cs[i+1]; j++ {
					ents = append(ents, j)
				}
			}
			mw = max(mw, len(ents)-int(lv[l])-roots)
			plo, phi = int(lv[l]), len(ents)
		}
		lv[levels] = int32(len(ents))
		ln.lv, ln.ring, ln.width = lv, ring, mw
		ring += 2 * mw
	}
	p.ents = ents
	p.lanes[w] = lane{at: top, lv: tlv, width: width}
	for m := range p.lanes {
		ln := &p.lanes[m]
		ln.fl, ln.fb = p.fl, ring
		if m < w {
			ln.at = ents
		}
	}
	p.slots = ring + frontier
}
