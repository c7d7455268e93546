package spantree

import (
	"errors"
	"fmt"

	"sensoragg/internal/faults"
	"sensoragg/internal/topology"
)

// ErrSweepIncomplete is the sentinel for a convergecast that cannot
// aggregate every included node: a phased fault struck mid-run and part of
// the tree view is dead. Callers match it with errors.Is and extract the
// dead-subtree accounting with errors.As on *IncompleteSweepError.
var ErrSweepIncomplete = errors.New("spantree: sweep incomplete — dead subtree under the live tree view")

// IncompleteSweepError reports which part of the tree view a convergecast
// would silently miss: the frontier of dead subtrees (each frontier node is
// dead — crashed, or cut off by a dead link to its parent — while every
// ancestor above it is live) and the total node count those subtrees hide.
// Surfacing this instead of aggregating a partial count is what lets the
// engine's retry policy re-heal and resume rather than return a wrong
// answer that looks exact.
type IncompleteSweepError struct {
	// Root is the view root the sweep was aggregating toward.
	Root topology.NodeID
	// RootDead marks the worst case: the querier itself died (root-kill),
	// so nothing can be aggregated toward it and healing must re-root.
	RootDead bool
	// Frontier lists the shallowest dead node of each dead subtree, in BFS
	// order of the view.
	Frontier []topology.NodeID
	// Missing is the total number of view nodes inside dead subtrees — the
	// population a silent aggregation would have dropped.
	Missing int
}

// Error implements error.
func (e *IncompleteSweepError) Error() string {
	if e.RootDead {
		return fmt.Sprintf("spantree: sweep incomplete — root %d dead, %d of the view's nodes unreachable", e.Root, e.Missing)
	}
	return fmt.Sprintf("spantree: sweep incomplete — %d dead subtree(s) hiding %d node(s) under root %d", len(e.Frontier), e.Missing, e.Root)
}

// Is matches the ErrSweepIncomplete sentinel.
func (e *IncompleteSweepError) Is(target error) bool { return target == ErrSweepIncomplete }

// checkComplete verifies the current tree view against the (fired) fault
// plan before a sweep runs: every included node must still be alive and
// reachable from the root over live links. It returns nil when the view is
// whole and an *IncompleteSweepError otherwise. Called only on phased
// plans after they fire — the zero-fault and run-long-fault paths never
// reach it. Link fates are the network's, derived once per plan epoch; a
// view edge that is no tree edge (a graft) is hashed. The dead marks are a
// bit per node in the network's scratch.
func (e *FastEngine) checkComplete(plan *faults.Plan) error {
	v, tree := e.view, e.nw.Tree
	if plan.Excluded(v.Root) {
		return &IncompleteSweepError{Root: v.Root, RootDead: true, Missing: v.N()}
	}
	fates := e.sh.fates.Of(plan, e.nw.Graph, tree)
	dead := grow(e.sh.dead, (len(v.Parent)+63)/64)
	e.sh.dead = dead
	clear(dead)
	var frontier []topology.NodeID
	missing := 0
	for _, u := range v.Order {
		if u == v.Root {
			continue
		}
		switch p := v.Parent[u]; {
		case dead[p/64]&(1<<(p%64)) != 0:
		case plan.Excluded(u) || !viewLinkAlive(tree, fates, plan, p, u):
			frontier = append(frontier, u)
		default:
			continue
		}
		dead[u/64] |= 1 << (u % 64)
		missing++
	}
	if missing == 0 {
		return nil
	}
	return &IncompleteSweepError{Root: v.Root, Frontier: frontier, Missing: missing}
}

// viewLinkAlive reports whether the view edge between p and its child u
// is alive: a tree edge, either way round, from the kept fates; any other
// edge (a graft) from the plan.
func viewLinkAlive(tree *topology.Tree, fates *faults.LinkFates, plan *faults.Plan, p, u topology.NodeID) bool {
	switch {
	case tree.Parent[u] == p:
		return fates.UpAlive(u)
	case tree.Parent[p] == u:
		return fates.UpAlive(p)
	}
	return plan.LinkAlive(p, u)
}
