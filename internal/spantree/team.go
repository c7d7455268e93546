package spantree

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// A team runs one operation's shares — a convergecast's member lanes or a
// broadcast's chunks — on the calling goroutine and on resident helpers.
// Shares are claimed, not assigned: the caller claims shares beside the
// helpers it lent the run, so a helper that starts late costs the caller
// nothing but the share it would have taken, and a team with no helper
// available (GOMAXPROCS 1, or every helper busy) runs every share on the
// caller. A warm run allocates nothing: the team lives in the run
// network's scratch, helpers are goroutines of a process-wide pool that
// hold a reference to the team only while they work for it, and an idle
// helper spin-yields about one sweep before it parks, so back-to-back
// sweeps pay no goroutine start and no wake-up.
type team struct {
	job *FastEngine // runs share m of its operation in flight
	// claim packs the run's generation (high 32 bits), its share count
	// (next 16) and the next unclaimed share (low 16): one word, so a
	// helper still holding an earlier run's generation can never claim a
	// share of this one.
	claim atomic.Uint64
	gen   uint32
	// left counts the shares not yet finished; the helper that finishes
	// the last one sends done's one token.
	left atomic.Int32
	done chan struct{}

	mu       sync.Mutex
	panicked any // the first share's panic, re-raised on the caller
}

const (
	// helperSpin is how long an idle helper (and a caller waiting for its
	// helpers) spin-yields before it parks: about one sweep of a
	// 4,096-node view, so the shares of back-to-back sweeps never wait on
	// a wake-up.
	helperSpin = 200 * time.Microsecond
	// helperLinger is how long a parked helper waits for work before it
	// exits, so a quiescent process holds no helper goroutines.
	helperLinger = 500 * time.Millisecond
	// spinPolls is how many times a spinning goroutine polls between
	// yields: a poll is one atomic load, a yield takes the scheduler's lock.
	spinPolls = 64
)

// run runs the w shares of job's operation in flight and returns once
// every one has finished. A share's panic is re-raised here, after the
// join, so no helper still touches the operation's scratch when the
// caller unwinds.
func (t *team) run(job *FastEngine, w int) {
	if t.done == nil {
		t.done = make(chan struct{}, 1)
	}
	t.job = job
	t.gen++
	t.left.Store(int32(w))
	t.claim.Store(uint64(t.gen)<<32 | uint64(w)<<16)
	lend(t, t.gen, w-1)
	if !t.work(t.gen, false) {
		spin(func() bool { return t.left.Load() == 0 })
		<-t.done
	}
	t.job = nil
	if p := t.panicked; p != nil {
		t.panicked = nil
		panic(p)
	}
}

// work claims and runs shares of generation gen until none is left. It
// reports whether it finished the run's last share; a helper that does
// sends the caller its token.
func (t *team) work(gen uint32, helper bool) (last bool) {
	for {
		s := t.claim.Load()
		if uint32(s>>32) != gen || s&0xffff >= s>>16&0xffff {
			return last
		}
		if !t.claim.CompareAndSwap(s, s+1) {
			continue
		}
		t.runShare(int(s & 0xffff))
		if t.left.Add(-1) == 0 {
			if helper {
				t.done <- struct{}{}
			}
			last = true
		}
	}
}

// runShare runs one share, keeping its panic for the caller.
func (t *team) runShare(m int) {
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			if t.panicked == nil {
				t.panicked = r
			}
			t.mu.Unlock()
		}
	}()
	t.job.share(m)
}

// spin polls done, yielding the processor every spinPolls polls, until it
// holds or helperSpin has passed; it reports whether done held.
func spin(done func() bool) bool {
	deadline := time.Now().Add(helperSpin)
	for i := 1; !done(); i++ {
		if i%spinPolls == 0 {
			if !time.Now().Before(deadline) {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}

// The helper pool: idle helpers, and how many helpers are alive. It never
// holds more than GOMAXPROCS-1 of them.
var helpers struct {
	mu   sync.Mutex
	idle []*helper
	live int
}

// helper states.
const (
	spinning int32 = iota // idle, in the idle list
	parked                // idle, in the idle list, blocked on wake
	lent
)

type helper struct {
	t     *team
	gen   uint32
	state atomic.Int32
	wake  chan struct{}
	timer *time.Timer
}

// lend lends run gen of t up to n helpers: idle ones first, then new ones
// while the pool is below GOMAXPROCS-1.
func lend(t *team, gen uint32, n int) {
	if n <= 0 {
		return
	}
	helpers.mu.Lock()
	for ; n > 0 && len(helpers.idle) > 0; n-- {
		h := helpers.idle[len(helpers.idle)-1]
		helpers.idle = helpers.idle[:len(helpers.idle)-1]
		h.t, h.gen = t, gen
		if h.state.Swap(lent) == parked {
			h.wake <- struct{}{}
		}
	}
	spawn := min(n, runtime.GOMAXPROCS(0)-1-helpers.live)
	helpers.live += max(spawn, 0)
	helpers.mu.Unlock()
	for ; spawn > 0; spawn-- {
		h := &helper{t: t, gen: gen, wake: make(chan struct{}, 1), timer: time.NewTimer(helperLinger)}
		h.timer.Stop()
		h.state.Store(lent)
		go h.loop()
	}
}

// loop is a helper's life: work for the run it was lent to, go back to the
// idle list, wait for the next loan, and exit once idle for helperLinger.
func (h *helper) loop() {
	for {
		for t, gen := h.t, h.gen; ; {
			t.work(gen, true)
			// A helper that arrives late finds its run's shares taken,
			// and its team may have started the next run while it was not
			// idle to be lent: it joins that run while shares are left.
			s := t.claim.Load()
			if g := uint32(s >> 32); g == gen || s&0xffff >= s>>16&0xffff {
				break
			}
			gen = uint32(s >> 32)
		}
		h.t = nil
		helpers.mu.Lock()
		h.state.Store(spinning)
		helpers.idle = append(helpers.idle, h)
		helpers.mu.Unlock()
		if !h.await() {
			return
		}
	}
}

// await waits for the next loan: it spin-yields for helperSpin, then
// parks. It returns false when the helper has left the pool instead.
func (h *helper) await() bool {
	if spin(func() bool { return h.state.Load() == lent }) {
		return true
	}
	if !h.state.CompareAndSwap(spinning, parked) {
		return true // lent while it spun
	}
	h.timer.Reset(helperLinger)
	select {
	case <-h.wake:
		if !h.timer.Stop() {
			select {
			case <-h.timer.C:
			default:
			}
		}
		return true
	case <-h.timer.C:
	}
	helpers.mu.Lock()
	if i := slices.Index(helpers.idle, h); i >= 0 {
		helpers.idle = slices.Delete(helpers.idle, i, i+1)
		helpers.live--
		helpers.mu.Unlock()
		return false
	}
	helpers.mu.Unlock()
	<-h.wake // lent out as the timer fired
	return true
}
