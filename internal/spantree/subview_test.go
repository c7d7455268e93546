package spantree

import (
	"testing"

	"sensoragg/internal/topology"
)

func TestSubtreeView(t *testing.T) {
	g := topology.Grid(5, 5)
	tree := topology.BFSTree(g, 0)
	view := FullView(tree)
	for _, r := range view.Children(view.Root) {
		sub := SubtreeView(view, r)
		if sub.Root != r {
			t.Fatalf("subview root %d, want %d", sub.Root, r)
		}
		if sub.Parent[r] != -1 {
			t.Fatalf("subview root parent %d, want -1", sub.Parent[r])
		}
		if !sub.Includes(r) || sub.Includes(view.Root) {
			t.Fatal("subview must include its root and exclude the global root")
		}
		// Every member's parent chain must reach r without leaving the
		// subview, and membership must match descent from r in the
		// original view.
		for _, u := range sub.Order {
			w := u
			for w != r {
				w = sub.Parent[w]
				if w < 0 {
					t.Fatalf("node %d's parent chain escaped the subview", u)
				}
			}
		}
		want := 0
		stack := []topology.NodeID{r}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			want++
			if !sub.Includes(u) {
				t.Fatalf("descendant %d of %d missing from subview", u, r)
			}
			stack = append(stack, view.Children(u)...)
		}
		if sub.N() != want {
			t.Fatalf("subview of %d has %d nodes, want %d", r, sub.N(), want)
		}
	}
}
