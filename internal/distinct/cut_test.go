package distinct

import (
	"fmt"
	"testing"
)

// TestCutBitsMatchWatchedEdge pins CutBits, read off the per-node
// counters, to the bits the meter's former watched-edge counter recorded on
// the cut for the same instances: sizes from the smallest line up, exact
// and sketch, disjoint and overlapping, both player-to-node mappings.
func TestCutBitsMatchWatchedEdge(t *testing.T) {
	for _, c := range []struct {
		n        int
		sketchP  int
		seed     uint64
		disjoint bool
		multi    bool
		want     int64
	}{
		{2, -1, 1, true, false, 7},
		{3, -1, 1, false, false, 14},
		{3, -1, 1, true, true, 12},
		{17, -1, 2, true, false, 72},
		{17, -1, 3, false, true, 64},
		{17, 6, 2, false, false, 448},
		{64, -1, 1, true, false, 241},
		{64, 6, 1, true, true, 448},
		{256, -1, 1, false, false, 923},
		{256, -1, 1, true, true, 921},
		{1024, -1, 1, false, false, 3629},
		{1024, 6, 1, true, false, 448},
	} {
		h := DisjointnessHarness{SetSize: c.n, SketchP: c.sketchP, Seed: c.seed, MultiItem: c.multi}
		t.Run(fmt.Sprintf("n=%d/p=%d/seed=%d/disjoint=%v/multi=%v", c.n, c.sketchP, c.seed, c.disjoint, c.multi), func(t *testing.T) {
			run, err := h.Run(c.disjoint)
			if err != nil {
				t.Fatal(err)
			}
			if run.CutBits != c.want {
				t.Fatalf("cut bits %d, the watched edge carried %d", run.CutBits, c.want)
			}
		})
	}
}
