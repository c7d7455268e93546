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
	before := nw.Meter.Snapshot()
	var r Result
	if err := e.execute(nw, spec, q, e.teamSize(1), &r); err != nil {
		return nw, Result{}, err
	}
	resultFrom(&r, spec, q, nw.Meter.Since(before), 0)
	return nw, r, nil
}

// AuditEntries is the number of audits the session's table holds.
func (s *Session) AuditEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.audits)
}
