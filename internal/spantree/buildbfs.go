package spantree

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// BuildResult reports a distributed tree construction run.
type BuildResult struct {
	// Tree is the constructed BFS spanning tree.
	Tree *topology.Tree
	// Rounds is the number of synchronous rounds used.
	Rounds int
	// Comm is the communication accrued by the construction.
	Comm netsim.Delta
}

// message tags for the construction protocol (1 bit on the wire).
const (
	tagAnnounce = 0 // "my BFS depth is d" — flood wave
	tagJoin     = 1 // "I chose you as my parent"
)

// buildState is one node's view of the construction. A JOIN needs no
// state at its receiver: the tree comes from the parents.
type buildState struct {
	depth  int
	parent topology.NodeID
	joined bool
}

// BuildBFS constructs a BFS spanning tree of nw.Graph rooted at nw's root
// using only neighbour messages, charging the meter — this makes the setup
// cost that TAG [9] and Zhao et al. [16] discuss explicit rather than
// assumed. Each node announces its depth once (Elias-gamma coded) and sends
// one 1-bit JOIN to its chosen parent, so per-node cost is
// O(deg · log diameter) bits. The resulting tree has the same depths as the
// centralized topology.BFSTree; tie-breaks prefer the lowest-ID parent.
//
// The constructed tree is returned but the network's tree is left unchanged;
// callers opt in via nw.Tree = result.Tree (after degree-bounding if
// desired).
func BuildBFS(nw *netsim.Network) (*BuildResult, error) {
	n := nw.N()
	root := nw.Root()
	states := make([]buildState, n)
	for i := range states {
		states[i] = buildState{depth: -1, parent: -1}
	}
	states[root].depth = 0

	before := nw.Meter.Snapshot()
	handler := netsim.RoundHandlerFunc(func(nd *netsim.Node, round int, inbox []netsim.GraphMsg) []netsim.GraphMsg {
		st := &states[nd.ID]
		out := nd.OutboxScratch()

		for _, msg := range inbox {
			r := msg.Payload.Reader()
			tag, err := r.ReadBit()
			if err != nil {
				panic(fmt.Sprintf("spantree: malformed build message: %v", err))
			}
			if tag == tagAnnounce {
				d, err := r.ReadGamma()
				if err != nil {
					panic(fmt.Sprintf("spantree: malformed announce: %v", err))
				}
				if st.depth < 0 {
					st.depth = int(d) + 1
					st.parent = msg.From
				}
			}
		}

		// A node that has just learned its depth announces to all
		// neighbours and joins its parent.
		if st.depth >= 0 && !st.joined {
			st.joined = true
			var w bitio.Writer
			w.WriteBit(tagAnnounce)
			w.WriteGamma(uint64(st.depth))
			announce := wire.FromWriter(&w)
			for _, nbr := range nw.Graph.Adj[nd.ID] {
				if nbr == st.parent {
					continue
				}
				out = append(out, netsim.GraphMsg{From: nd.ID, To: nbr, Payload: announce})
			}
			if st.parent >= 0 {
				var jw bitio.Writer
				jw.WriteBit(tagJoin)
				out = append(out, netsim.GraphMsg{From: nd.ID, To: st.parent, Payload: wire.FromWriter(&jw)})
			}
		}
		return out
	})

	// Diameter+2 rounds suffice; n+2 is a safe cap and RunRounds stops at
	// quiescence anyway.
	res := netsim.RunRounds(nw, handler, n+2)

	parent := make([]topology.NodeID, n)
	for i, st := range states {
		if st.depth < 0 {
			return nil, fmt.Errorf("spantree: node %d unreached — graph disconnected?", i)
		}
		parent[i] = st.parent
	}
	tree, err := topology.FromParents(parent, root, "distbfs("+nw.Graph.Name+")")
	if err != nil {
		return nil, fmt.Errorf("spantree: assembling constructed tree: %w", err)
	}
	return &BuildResult{Tree: tree, Rounds: res.Rounds, Comm: nw.Meter.Since(before)}, nil
}
