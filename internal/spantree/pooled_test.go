package spantree

import (
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// meterOf flattens the per-node sent/recv counters for exact comparison.
func meterOf(nw *netsim.Network) []int64 {
	out := make([]int64, 0, 2*nw.N())
	for u := 0; u < nw.N(); u++ {
		out = append(out, nw.Meter.SentBitsOf(topology.NodeID(u)), nw.Meter.RecvBitsOf(topology.NodeID(u)))
	}
	return out
}

// fastVariants builds one fast engine per schedule, each over its own fork
// of the template so the meters are independent.
func fastVariants(tmpl *netsim.Network, faultSpec faults.Spec) map[string]*FastEngine {
	mk := func(workers int) *FastEngine {
		nw := tmpl.Fork(7)
		if faultSpec.Active() {
			nw.Faults = faults.New(faultSpec, nw.N(), nw.Root(), 7)
		}
		e := NewFast(nw)
		e.SetWorkers(workers)
		return e
	}
	return map[string]*FastEngine{
		"sequential": mk(1),
		"team-2":     mk(2),
		"team-4":     mk(4),
	}
}

// TestFastEngineModesIdentical runs the same convergecast+broadcast
// workload through every schedule — including under an active
// message-fault plan — and demands byte-identical results and per-node
// meters.
func TestFastEngineModesIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   faults.Spec
	}{
		{"reliable", faults.Spec{}},
		{"drop-dup", faults.Spec{Drop: 0.1, Dup: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmpl := testNetwork(t, topology.Grid(16, 16))
			variants := fastVariants(tmpl, tc.fs)
			ref := variants["sequential"]
			refOut, err := ref.Convergecast(idCombiner{})
			if err != nil {
				t.Fatal(err)
			}
			var bw bitio.Writer
			bw.WriteBits(0b110101, 6)
			ref.Broadcast(wire.FromWriter(&bw), nil)
			refMeter := meterOf(ref.Network())

			for name, e := range variants {
				if name == "sequential" {
					continue
				}
				out, err := e.Convergecast(idCombiner{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if out.(uint64) != refOut.(uint64) {
					t.Errorf("%s: convergecast = %d, reference %d", name, out, refOut)
				}
				var w bitio.Writer
				w.WriteBits(0b110101, 6)
				e.Broadcast(wire.FromWriter(&w), nil)
				got := meterOf(e.Network())
				for i := range refMeter {
					if got[i] != refMeter[i] {
						t.Fatalf("%s: meter cell %d = %d, reference %d", name, i, got[i], refMeter[i])
					}
				}
			}
		})
	}
}

// TestFastEngineRepeatedOpsReuseScratch runs many operations on one engine
// to shake out stale-scratch bugs: every repetition must produce the same
// answer and charge the same bits.
func TestFastEngineRepeatedOpsReuseScratch(t *testing.T) {
	nw := testNetwork(t, topology.Grid(8, 8))
	e := NewFast(nw)
	want := uint64(nw.N() * (nw.N() - 1) / 2)
	var lastDelta int64
	for i := 0; i < 10; i++ {
		before := nw.Meter.Snapshot()
		out, err := e.Convergecast(idCombiner{})
		if err != nil {
			t.Fatal(err)
		}
		if out.(uint64) != want {
			t.Fatalf("iteration %d: sum = %d, want %d", i, out, want)
		}
		d := nw.Meter.Since(before).TotalBits
		if i > 0 && d != lastDelta {
			t.Fatalf("iteration %d charged %d bits, previous charged %d", i, d, lastDelta)
		}
		lastDelta = d
	}
}

// TestGoroutineEngineChannelReuse runs repeated operations through the
// goroutine engine — including an op after a decode failure, which leaves
// unconsumed channel sends behind — and checks the reused channel array
// doesn't leak state between operations.
func TestGoroutineEngineChannelReuse(t *testing.T) {
	nw := testNetwork(t, topology.Grid(5, 5))
	e := NewGoroutine(nw)
	want := uint64(nw.N() * (nw.N() - 1) / 2)
	for i := 0; i < 5; i++ {
		out, err := e.Convergecast(idCombiner{})
		if err != nil {
			t.Fatal(err)
		}
		if out.(uint64) != want {
			t.Fatalf("iteration %d: sum = %d, want %d", i, out, want)
		}
	}
	// Force a decode failure mid-wave, then confirm the next op is clean.
	if _, err := e.Convergecast(brokenCombiner{}); err == nil {
		t.Fatal("broken combiner did not error")
	}
	out, err := e.Convergecast(idCombiner{})
	if err != nil {
		t.Fatalf("op after failed op: %v", err)
	}
	if out.(uint64) != want {
		t.Fatalf("op after failed op: sum = %d, want %d", out, want)
	}
}

// brokenCombiner encodes nothing, so every non-leaf decode fails.
type brokenCombiner struct{ idCombiner }

func (brokenCombiner) AppendPartial(*bitio.Writer, any) {}
