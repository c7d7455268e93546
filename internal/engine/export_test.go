package engine

import "sensoragg/internal/netsim"

// RunOnFork answers q alone on a fresh fork of spec, as a solo Submit job
// does, and hands back the fork so an external test can read its per-node
// meter and items. The caller releases the fork.
func (e *Engine) RunOnFork(spec Spec, q Query) (*netsim.Network, Result, error) {
	spec = spec.Normalize()
	nw, err := e.session.Instantiate(spec, spec.Seed)
	if err != nil {
		return nil, Result{}, err
	}
	r, err := e.runAlone(nw, Job{Spec: spec, Query: q}, e.teamSize(1))
	r.WallNS = 0
	return nw, r, err
}

// AuditEntries is the number of audits the session's table holds.
func (s *Session) AuditEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.audits)
}
