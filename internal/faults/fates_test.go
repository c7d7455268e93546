package faults

import (
	"testing"

	"sensoragg/internal/topology"
)

// TestLinkFatesMatchLinkAlive holds the kept fates to Plan.LinkAlive for
// every adjacency entry and every tree edge — BFS trees, and a hand-built
// tree that hangs nodes off non-neighbours — under run-long and mid-flight
// link failures, before and after the strike, re-deriving on the same
// scratch as the plan, its epoch, the graph or the tree changes.
func TestLinkFatesMatchLinkAlive(t *testing.T) {
	line := topology.Line(40)
	parent := make([]topology.NodeID, line.N())
	for c := range parent {
		parent[c] = topology.NodeID(c / 3) // off the line from c = 2 on
	}
	parent[0] = -1
	offGraph, err := topology.FromParents(parent, 0, "off-graph")
	if err != nil {
		t.Fatal(err)
	}
	grid := topology.Grid(12, 12)
	cases := []struct {
		g *topology.Graph
		t *topology.Tree
	}{
		{grid, topology.BFSTree(grid, 0)},
		{topology.Star(30), topology.BFSTree(topology.Star(30), 0)},
		{line, offGraph},
	}
	var f LinkFates
	dead := 0
	for _, c := range cases {
		for _, spec := range []Spec{
			{},
			{LinkFail: 0.1},
			{MidAt: 1, MidLinkFail: 0.1},
			{LinkFail: 0.05, MidAt: 1, MidCrash: 0.1, MidLinkFail: 0.1},
		} {
			for seed := uint64(1); seed <= 3; seed++ {
				p := New(spec, c.g.N(), 0, seed)
				for fired := 0; fired < 2; fired++ {
					f.Of(p, c.g, c.t)
					for u, nbrs := range c.g.Adj {
						uid := topology.NodeID(u)
						deadNbrs := f.DeadNeighbors(uid)
						for _, v := range nbrs {
							gone := len(deadNbrs) > 0 && deadNbrs[0] == v
							if gone {
								deadNbrs = deadNbrs[1:]
								dead++
							}
							if gone == p.LinkAlive(uid, v) {
								t.Fatalf("%s %+v seed %d: link %d–%d dead=%v, LinkAlive says %v", c.t.Name, spec, seed, u, v, gone, p.LinkAlive(uid, v))
							}
						}
						if len(deadNbrs) > 0 {
							t.Fatalf("%s: node %d lists dead neighbours %v outside its adjacency", c.t.Name, u, deadNbrs)
						}
						if par := c.t.Parent[u]; par >= 0 && f.UpAlive(uid) != p.LinkAlive(par, uid) {
							t.Fatalf("%s %+v seed %d: tree edge %d–%d UpAlive %v, LinkAlive %v", c.t.Name, spec, seed, par, u, f.UpAlive(uid), p.LinkAlive(par, uid))
						}
					}
					p.Tick()
				}
			}
		}
	}
	if dead == 0 {
		t.Fatal("no link died")
	}
}
