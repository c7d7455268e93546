package netsim

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"

	"sensoragg/internal/topology"
)

// Meter tracks per-node communication. The paper's communication complexity
// is "the maximum ... of the number of bits transmitted and received by any
// node" (§2.1), i.e. max over nodes of sent+received; the meter also keeps
// totals and message counts for the experiment reports.
//
// All counters are atomic: protocols charge from many node goroutines at
// once (goroutine tree engine and the tree kernel's team sweeps). Counters
// are therefore unexported; use the accessor methods.
type Meter struct {
	// cells packs each node's three counters side by side: charging a
	// message touches the sender's sent+msgs (one cache line) and the
	// receiver's recv, instead of three separate arrays — the hot-path
	// layout for the tree engines' per-edge charging. The cells follow the
	// network's storage order: node u's counters are cells[slot[u]], so a
	// sweep in tree order walks them linearly. Every method that takes a
	// node ID maps it through slot; only ChargeBroadcastSeq, Ledger and
	// Replay speak slots.
	cells []meterCell
	// slot is the network's ID → slot map — its tree's position map
	// (Tree.CSR), shared with every meter of its forks; a standalone meter
	// (NewMeter) maps each ID to itself.
	slot []int32
}

// meterCell is one node's counters. The fields are plain int64s: the
// concurrent charge paths (Charge, ChargeTx, ChargeRx — used by
// the goroutine engine and the radio loop) update them with explicit
// sync/atomic calls, while the fast tree engine's single-writer sweeps
// (the *Seq methods) use plain loads and stores — an atomic.Int64 store
// compiles to a full-barrier XCHG on amd64, which would cost as much as
// the read-modify-write the Seq paths exist to avoid. Readers go through
// atomic loads, and every single-writer phase is separated from its
// readers by a happens-before edge (the sweep barrier or plain program
// order), so the mixed access is well-defined.
type meterCell struct {
	sent int64
	recv int64
	msgs int64
}

// NewMeter returns a meter for n nodes, node u's counters in cell u.
func NewMeter(n int) *Meter {
	slot := make([]int32, n)
	for i := range slot {
		slot[i] = int32(i)
	}
	return newMeter(slot)
}

// newMeter returns a meter whose cell for node u is slot[u].
func newMeter(slot []int32) *Meter {
	return &Meter{cells: make([]meterCell, len(slot)), slot: slot}
}

// cell returns node u's counters.
func (m *Meter) cell(u topology.NodeID) *meterCell { return &m.cells[m.slot[u]] }

// N returns the number of nodes the meter covers.
func (m *Meter) N() int { return len(m.cells) }

// Charge records a message of the given bit length from -> to. It is safe
// for concurrent use: the goroutine tree engine charges from many node
// goroutines at once.
func (m *Meter) Charge(from, to topology.NodeID, bits int) {
	c := m.cell(from)
	atomic.AddInt64(&c.sent, int64(bits))
	atomic.AddInt64(&m.cell(to).recv, int64(bits))
	atomic.AddInt64(&c.msgs, 1)
}

// ChargeTx records a physical-layer transmission: the sender pays the
// payload once regardless of how many neighbours hear it (radio model).
func (m *Meter) ChargeTx(from topology.NodeID, bits int) {
	c := m.cell(from)
	atomic.AddInt64(&c.sent, int64(bits))
	atomic.AddInt64(&c.msgs, 1)
}

// ChargeSendOnlySeq records the send side of `copies` identical messages
// of the given bit length from one sender to distinct receivers; the
// caller charges each receiver separately (ChargeRxSeq). The "Seq"
// variants are PLAIN, non-atomic read-modify-writes — an atomic store
// compiles to a full-barrier XCHG on amd64, which is what they exist to
// avoid. They are therefore only legal on a phase where (a) no other
// goroutine can touch the same counter cell and (b) every reader is
// separated from the sweep by a happens-before edge. The fast tree engine
// qualifies: each cell in a sweep has exactly one writer (a child's send
// side is charged by its only parent's worker, a node's receive side by
// its own worker), sweeps are ordered by the level barrier, and meter
// readers run only after the operation returns. Calling any reader
// (Snapshot, MaxPerNode, ...) concurrently with a Seq sweep is a data
// race.
func (m *Meter) ChargeSendOnlySeq(from topology.NodeID, bits, copies int) {
	c := m.cell(from)
	c.sent += int64(bits) * int64(copies)
	c.msgs += int64(copies)
}

// ChargeRxSeq is the single-writer variant of ChargeRx; see
// ChargeSendOnlySeq for the safety contract.
func (m *Meter) ChargeRxSeq(to topology.NodeID, bits int) {
	m.cell(to).recv += int64(bits)
}

// ChargeNodeSeq charges node u's full convergecast step in one cell
// visit: one message of sentBits sent to its parent (when sentBits >= 0;
// the root passes -1) and recvBits received from its children. Same
// single-writer contract as ChargeSendOnlySeq.
func (m *Meter) ChargeNodeSeq(u topology.NodeID, sentBits, recvBits int) {
	c := m.cell(u)
	if sentBits >= 0 {
		c.sent += int64(sentBits)
		c.msgs++
	}
	if recvBits > 0 {
		c.recv += int64(recvBits)
	}
}

// ChargeBroadcastSeq charges storage slots [lo, hi) for one uniform
// broadcast wave: the node in slot p sends `bits` to each of its
// first[p+1]-first[p] children and (except the root) receives `bits` from
// its parent. Both the range and first are indexed by slot, not by node
// ID: on a network built by NewFromTree slot p holds Tree.Order[p], so they
// are positions of the network's own spanning tree, and first is its child
// starts (Tree.CSR). One flat loop over the cells replaces three helper
// calls per node on the tree engine's hottest broadcast path.
// Single-writer contract as ChargeSendOnlySeq; callers covering any other
// view must use per-node charging instead.
func (m *Meter) ChargeBroadcastSeq(bits int, first []int32, root topology.NodeID, lo, hi int) {
	b := int64(bits)
	rs := int(m.slot[root])
	for i := lo; i < hi; i++ {
		c := &m.cells[i]
		if k := int64(first[i+1] - first[i]); k > 0 {
			c.sent += b * k
			c.msgs += k
		}
		if i != rs {
			c.recv += b
		}
	}
}

// ChargeEdgeSeq records `msgs` messages totalling `bits` bits on the
// directed edge from → to in one update: the flush path of protocols that
// accumulate an edge's traffic over a whole phase (the byz audit rounds),
// the per-frame path of the sequential repair handshake, and the sketch
// fold's r same-size sketches per edge. Cell updates follow the
// single-writer contract of ChargeSendOnlySeq.
func (m *Meter) ChargeEdgeSeq(from, to topology.NodeID, bits, msgs int64) {
	c := m.cell(from)
	c.sent += bits
	c.msgs += msgs
	m.cell(to).recv += bits
}

// ChargeCellSeq adds a whole phase's traffic to node u's counters in one
// cell visit: sent and received bits and messages sent — the flush path of
// the repair handshake, which tallies every node's frames first. Cell
// updates follow the single-writer contract of ChargeSendOnlySeq.
func (m *Meter) ChargeCellSeq(u topology.NodeID, sent, recv, msgs int64) {
	c := m.cell(u)
	c.sent += sent
	c.recv += recv
	c.msgs += msgs
}

// Ledger is a per-node copy of the three counters. Taken before a protocol
// phase and handed to ChargedSince after it, it yields what the phase charged
// each node; Replay charges that to another run's meter, so forks of one
// deployment can share a phase's outcome and still each pay for it.
type Ledger []meterCell

// Ledger copies the current counters; it is nil while every counter is
// zero, as on a freshly reset run meter, so that copy is free.
func (m *Meter) Ledger() Ledger {
	for i := range m.cells {
		if m.cells[i] != (meterCell{}) {
			return append(Ledger(nil), m.cells...)
		}
	}
	return nil
}

// Charges is what a protocol phase charged each node, packed for keeping:
// per storage slot the sent bits, received bits and messages as
// encoding/binary uvarints — a few bytes a node where a Ledger takes 24.
// Replay follows the single-writer contract of ChargeSendOnlySeq. Charges
// are indexed by storage slot, not node ID, so replay them only onto a
// meter of the same layout: a fork of the same template, or any network
// over the same tree.
type Charges []byte

// ChargedSince packs the charges accrued since l was copied from m, in one
// allocation of the packed size.
func (m *Meter) ChargedSince(l Ledger) Charges {
	delta := func(i int) [3]uint64 {
		c := m.cells[i]
		if l != nil {
			c = meterCell{sent: c.sent - l[i].sent, recv: c.recv - l[i].recv, msgs: c.msgs - l[i].msgs}
		}
		return [3]uint64{uint64(c.sent), uint64(c.recv), uint64(c.msgs)}
	}
	size := 0
	for i := range m.cells {
		for _, v := range delta(i) {
			size += (bits.Len64(v|1) + 6) / 7 // binary.AppendUvarint's length
		}
	}
	b := make(Charges, 0, size)
	for i := range m.cells {
		for _, v := range delta(i) {
			b = binary.AppendUvarint(b, v)
		}
	}
	return b
}

// Replay adds the recorded charges to m.
func (m *Meter) Replay(ch Charges) {
	next := func() int64 {
		v, n := binary.Uvarint(ch)
		ch = ch[n:]
		return int64(v)
	}
	for i := range m.cells {
		c := &m.cells[i]
		c.sent += next()
		c.recv += next()
		c.msgs += next()
	}
}

// ChargeRx records one node hearing a physical-layer transmission.
func (m *Meter) ChargeRx(to topology.NodeID, bits int) {
	atomic.AddInt64(&m.cell(to).recv, int64(bits))
}

// Reset zeroes all counters. Like the *Seq charges it is a single-owner
// operation — plain stores, one bulk clear instead of three full-barrier
// atomic stores per cell: the caller must own the meter outright, with no
// run charging or reading it, and must publish the reset to whoever uses
// the meter next (ForkPool resets under its lock, between runs).
func (m *Meter) Reset() {
	clear(m.cells)
}

// SentBitsOf returns the bits node u has sent.
func (m *Meter) SentBitsOf(u topology.NodeID) int64 { return atomic.LoadInt64(&m.cell(u).sent) }

// RecvBitsOf returns the bits node u has received.
func (m *Meter) RecvBitsOf(u topology.NodeID) int64 { return atomic.LoadInt64(&m.cell(u).recv) }

// MessagesOf returns the number of messages node u has sent.
func (m *Meter) MessagesOf(u topology.NodeID) int64 { return atomic.LoadInt64(&m.cell(u).msgs) }

// MaxPerNode returns the paper's complexity measure: max over nodes of
// bits sent plus bits received.
func (m *Meter) MaxPerNode() int64 {
	var max int64
	for i := range m.cells {
		if v := atomic.LoadInt64(&m.cells[i].sent) + atomic.LoadInt64(&m.cells[i].recv); v > max {
			max = v
		}
	}
	return max
}

// TotalBits returns the sum over nodes of bits sent (== total link bits).
func (m *Meter) TotalBits() int64 {
	var total int64
	for i := range m.cells {
		total += atomic.LoadInt64(&m.cells[i].sent)
	}
	return total
}

// TotalMessages returns the total number of messages sent.
func (m *Meter) TotalMessages() int64 {
	var total int64
	for i := range m.cells {
		total += atomic.LoadInt64(&m.cells[i].msgs)
	}
	return total
}

// PerNode returns bits sent+received for node u.
func (m *Meter) PerNode(u topology.NodeID) int64 {
	c := m.cell(u)
	return atomic.LoadInt64(&c.sent) + atomic.LoadInt64(&c.recv)
}

// Snapshot captures the current counters so a caller can measure one
// protocol invocation by diffing.
type Snapshot struct {
	// perNode is nil while every node's sent+recv is zero — the snapshot
	// of a freshly reset run meter, which is what most snapshots are.
	perNode   []int64
	totalBits int64
	totalMsgs int64
}

// Snapshot returns a copy of the per-node sent+recv totals, in one pass
// over the cells. The per-node copy is allocated at the first node that
// has traffic, so snapshotting an all-zero meter is free.
func (m *Meter) Snapshot() Snapshot {
	var s Snapshot
	for i := range m.cells {
		c := &m.cells[i]
		sent := atomic.LoadInt64(&c.sent)
		v := sent + atomic.LoadInt64(&c.recv)
		s.totalBits += sent
		s.totalMsgs += atomic.LoadInt64(&c.msgs)
		if v != 0 && s.perNode == nil {
			s.perNode = make([]int64, len(m.cells))
		}
		if s.perNode != nil {
			s.perNode[i] = v
		}
	}
	return s
}

// Delta summarizes communication since a snapshot.
type Delta struct {
	// MaxPerNode is max over nodes of (sent+recv) accrued since the snapshot.
	MaxPerNode int64
	// TotalBits is the total link bits accrued since the snapshot.
	TotalBits int64
	// Messages is the number of messages sent since the snapshot.
	Messages int64
}

// Since returns the communication accrued since snapshot s, in one pass
// over the cells; a snapshot without a per-node copy reads as all zeros.
func (m *Meter) Since(s Snapshot) Delta {
	d := Delta{TotalBits: -s.totalBits, Messages: -s.totalMsgs}
	for i := range m.cells {
		c := &m.cells[i]
		sent := atomic.LoadInt64(&c.sent)
		v := sent + atomic.LoadInt64(&c.recv)
		if s.perNode != nil {
			v -= s.perNode[i]
		}
		d.MaxPerNode = max(d.MaxPerNode, v)
		d.TotalBits += sent
		d.Messages += atomic.LoadInt64(&c.msgs)
	}
	return d
}
