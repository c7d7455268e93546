package engine

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"sensoragg/internal/netsim"
)

// refApply is Overlay.apply as it was while netsim stored nodes in ID
// order, kept verbatim as the reference the tree-order walk is held to.
func (o *Overlay) refApply(nw *netsim.Network) error {
	if len(o.Values) != nw.NumItems() {
		return fmt.Errorf("engine: overlay carries %d values for %d items", len(o.Values), nw.NumItems())
	}
	k := 0
	for _, nd := range nw.Nodes {
		for i := range nd.Items {
			v := o.Values[k]
			k++
			if v > nw.MaxX {
				v = nw.MaxX
			}
			nd.Items[i].Orig = v
			nd.Items[i].Cur = v
			nd.Items[i].Active = true
		}
	}
	return nil
}

// TestOverlayMatchesReference: on deployments whose tree Order differs from
// ID order, an overlay lands on every node's item exactly where the ID-order
// reference puts it — clamped to the domain, active, Cur = Orig — and
// AllItems reads the values back in ID order.
func TestOverlayMatchesReference(t *testing.T) {
	s := NewSession()
	for _, topo := range []string{"grid", "barbell", "rgg", "line"} {
		spec := Spec{Topology: topo, N: 300, Workload: "uniform", Seed: 3}
		nw, err := s.Instantiate(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := s.Instantiate(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(len(topo)), 1))
		ov := &Overlay{Values: make([]uint64, nw.NumItems())}
		for i := range ov.Values {
			ov.Values[i] = rng.Uint64N(2 * nw.MaxX) // half of them over the domain
		}
		for _, x := range []*netsim.Network{nw, ref} {
			nd := x.Nodes[x.Tree.Order[len(x.Tree.Order)/2]]
			nd.Items[0].Cur, nd.Items[0].Active = 0, false // a run's leftovers
		}
		if err := ov.apply(nw); err != nil {
			t.Fatal(err)
		}
		if err := ov.refApply(ref); err != nil {
			t.Fatal(err)
		}
		for id := range nw.Nodes {
			if got, want := nw.Nodes[id].Items, ref.Nodes[id].Items; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: node %d items %+v, reference %+v", topo, id, got, want)
			}
		}
		want := make([]uint64, len(ov.Values))
		for i, v := range ov.Values {
			want[i] = min(v, nw.MaxX)
		}
		if got := nw.AllItems(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AllItems does not round-trip the overlay in ID order", topo)
		}
		if err := (&Overlay{Values: ov.Values[1:]}).apply(nw); err == nil {
			t.Fatalf("%s: a short overlay was accepted", topo)
		}
		nw.Release()
		ref.Release()
	}
}
