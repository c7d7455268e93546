package experiments

import (
	"math/bits"

	"sensoragg/internal/core"
	"sensoragg/internal/stats"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// Primitives is experiment E1 — Fact 2.1: MAX, MIN, COUNT (and TAG's SUM)
// cost O(log N) bits per node on a bounded-degree spanning tree. The table
// sweeps N and topology and reports max-per-node bits for each primitive.
// Every cell must stay within its primitive's e1BitsPerLog · ⌈log₂N⌉ bits
// per node, and COUNT's fitted (log N)-exponent at most 1. A breach is a
// FAIL note.
func Primitives(cfg Config) (*stats.Table, error) {
	t := &stats.Table{
		ID:     "E1",
		Title:  "Primitive aggregates (Fact 2.1): bits/node vs N",
		Header: []string{"topology", "N", "minmax b/node", "count b/node", "sum b/node", "count result"},
	}
	ns := sizes(cfg, []int{256, 1024, 4096, 16384, 65536}, 1024)
	const maxX = 1 << 16

	for _, kind := range []topoKind{topoLine, topoGrid, topoRGG} {
		var xs, countBits []float64
		for _, n := range ns {
			net := simNet(kind, n, workload.Uniform, maxX, cfg.Seed+uint64(n))
			nw := net.Network()
			realN := nw.N()

			before := nw.Meter.Snapshot()
			net.MinMax(core.Linear)
			mmBits := nw.Meter.Since(before).MaxPerNode

			before = nw.Meter.Snapshot()
			count := net.Count(core.Linear, wire.True())
			cBits := nw.Meter.Since(before).MaxPerNode

			before = nw.Meter.Snapshot()
			net.Sum(core.Linear, wire.True())
			sBits := nw.Meter.Since(before).MaxPerNode

			if count != uint64(realN) {
				t.AddNote("FAIL: COUNT on %s N=%d returned %d", kind, realN, count)
			}
			logN := bits.Len(uint(realN - 1)) // ⌈log₂N⌉
			for _, c := range []struct {
				name string
				bits int64
				per  int
			}{{"MinMax", mmBits, e1MinMaxPerLog}, {"COUNT", cBits, e1CountPerLog}, {"SUM", sBits, e1SumPerLog}} {
				if bound := c.per * logN; c.bits > int64(bound) {
					t.AddNote("FAIL: %s on %s N=%d costs %d bits/node, above %d·⌈log₂N⌉ = %d", c.name, kind, realN, c.bits, c.per, bound)
				}
			}
			t.AddRow(string(kind), realN, mmBits, cBits, sBits, count)
			xs = append(xs, float64(realN))
			countBits = append(countBits, float64(cBits))
		}
		if len(xs) >= 3 {
			exp := stats.FitPolyLog(xs, countBits)
			t.AddNote("%s: COUNT (log N)-exponent ≈ %.2f (Fact 2.1 predicts ≈ 1)", kind, exp)
			if exp > 1 {
				t.AddNote("FAIL: %s COUNT's fitted (log N)-exponent %.2f exceeds Fact 2.1's 1", kind, exp)
			}
		}
	}
	t.AddNote("Expected shape: per-node bits grow logarithmically in N on every topology.")
	return t, nil
}

// E1's Fact 2.1 constants: no cell of a primitive may cost more than its
// constant · ⌈log₂N⌉ bits/node. Each is today's worst cell rounded up, all
// three on rgg at N = 256: MinMax 351 bits (43.9·8), COUNT 111 (13.9·8)
// and SUM 367 (45.9·8).
const (
	e1MinMaxPerLog = 44
	e1CountPerLog  = 14
	e1SumPerLog    = 46
)
