package core

// Auto-grow: graceful degradation under stash pressure (Config.AutoGrow).
// The stash absorbs insertion failures cheaply, but a stash that keeps
// filling means the configured geometry is past its load threshold and every
// subsequent lookup pays the stash-probe tax. The policy converts that
// pressure into capacity: when an insert lands in the stash while the stash
// population exceeds StashThreshold, the table grows by Factor; if the
// rebuild leaves the stash still over the threshold (the rehash itself can
// re-stash items), the factor backs off multiplicatively and growth retries,
// up to MaxAttempts per trigger. Every attempt and outcome is surfaced in
// Stats so operators can see the table resizing under them.
//
// The hook sits at the end of overflowInsert — the single point every
// stash-bound insert funnels through (Insert, the random walk, and the
// pathwise StashOverflow) — and runs after the stash write completes, so the
// triggering item participates in the rebuild. The growing flag keeps the
// rehash's own reinsertions (which may themselves stash items) from
// re-entering the policy.

// maybeAutoGrow runs the auto-grow policy after an insert stashed an item.
func (s *tableState) maybeAutoGrow() {
	p := &s.cfg.AutoGrow
	if !p.Enabled || s.growing || s.StashLen() <= p.StashThreshold {
		return
	}
	s.growing = true
	defer func() { s.growing = false }()
	factor := p.Factor
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		s.stats.GrowAttempts++
		if err := s.Grow(factor); err != nil {
			s.stats.GrowFailures++
		} else if s.StashLen() <= p.StashThreshold {
			s.stats.Grows++
			return
		}
		factor *= p.Backoff
	}
}
