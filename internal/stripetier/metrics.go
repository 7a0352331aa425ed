package stripetier

import (
	"strconv"

	"repro/internal/telemetry"
)

// tierMetrics holds the tier's instruments. Like the fault backend's
// counters they work unregistered (tests, embedded use); Register exports
// them on a telemetry.Registry for /metrics.
type tierMetrics struct {
	memberState   []telemetry.Gauge   // iofwd_stripe_member_state{member}
	memberOpsOK   []telemetry.Counter // iofwd_stripe_member_ops_total{member,result="ok"}
	memberOpsErr  []telemetry.Counter // iofwd_stripe_member_ops_total{member,result="error"}
	readFailovers telemetry.Counter   // iofwd_stripe_reads_failed_over_total
	repairs       telemetry.Counter   // iofwd_stripe_repairs_total
	repairErrs    telemetry.Counter   // iofwd_stripe_repair_failures_total
	degraded      telemetry.Counter   // iofwd_stripe_degraded_writes_total
	ejections     telemetry.Counter   // iofwd_stripe_ejections_total
	readmissions  telemetry.Counter   // iofwd_stripe_readmissions_total
	journalErrs   telemetry.Counter   // iofwd_stripe_journal_errors_total
}

func newTierMetrics(n int) *tierMetrics {
	return &tierMetrics{
		memberState:  make([]telemetry.Gauge, n),
		memberOpsOK:  make([]telemetry.Counter, n),
		memberOpsErr: make([]telemetry.Counter, n),
	}
}

// Register exports the tier's metric families on reg. Per-member series
// carry a member="<index>" label.
func (t *Tier) Register(reg *telemetry.Registry) {
	m := t.metrics
	for i := range t.members {
		member := telemetry.L("member", strconv.Itoa(i))
		reg.MustRegister("iofwd_stripe_member_state",
			"Stripe-tier member health state: 0 healthy, 1 half-open (probing), 2 ejected.",
			&m.memberState[i], member)
		reg.MustRegister("iofwd_stripe_member_ops_total",
			"Stripe-tier operations routed to each member, by result.",
			&m.memberOpsOK[i], member, telemetry.L("result", "ok"))
		reg.MustRegister("iofwd_stripe_member_ops_total",
			"Stripe-tier operations routed to each member, by result.",
			&m.memberOpsErr[i], member, telemetry.L("result", "error"))
	}
	reg.MustRegister("iofwd_stripe_reads_failed_over_total",
		"Stripe reads served by a non-primary replica after the preferred member failed or was ejected.",
		&m.readFailovers)
	reg.MustRegister("iofwd_stripe_repairs_total",
		"Stripes re-replicated onto a member that missed a write (background repair).",
		&m.repairs)
	reg.MustRegister("iofwd_stripe_repair_failures_total",
		"Repair attempts that failed and stayed queued.",
		&m.repairErrs)
	reg.MustRegister("iofwd_stripe_degraded_writes_total",
		"Writes acknowledged with fewer than the configured replica count (under-replicated until repaired).",
		&m.degraded)
	reg.MustRegister("iofwd_stripe_ejections_total",
		"Member transitions into the ejected state.",
		&m.ejections)
	reg.MustRegister("iofwd_stripe_readmissions_total",
		"Member transitions back to healthy after successful probes.",
		&m.readmissions)
	reg.MustRegister("iofwd_stripe_journal_errors_total",
		"Pending-set journal I/O failures (the entry degraded to in-memory only).",
		&m.journalErrs)
	reg.GaugeFunc("iofwd_stripe_repair_pending",
		"Stripe replicas currently queued for repair.",
		t.repair.pendingCount)
}

// recordOp updates the per-member op counters and feeds the health
// tracker; probe is the token the paired allowed call returned.
// Transitions update the state gauge, the transition counters, and kick
// the repair loop on readmission (newly healthy members can now accept
// their queued repairs).
func (t *Tier) recordOp(m int, probe uint64, err error) {
	ok := err == nil
	if ok {
		t.metrics.memberOpsOK[m].Inc()
	} else {
		t.metrics.memberOpsErr[m].Inc()
	}
	t.health.record(m, ok, probe)
}

// onTransition is the health tracker's callback (set in New).
func (t *Tier) onTransition(member int, s State, tr transition) {
	t.metrics.memberState[member].Set(int64(s))
	switch tr {
	case transEjected:
		t.metrics.ejections.Inc()
	case transReadmitted:
		t.metrics.readmissions.Inc()
		t.repair.kickNow()
	}
}

// onDue is the health tracker's other callback (set in newTier): the
// logical clock reached an ejected member's reopenAt, or a retry a repair
// pass armed. No traffic may ever ask for that member again — its stripes
// may see none — so the repair loop's pass, which asks allowed for every
// pending member, has to.
func (t *Tier) onDue() {
	if t.repair.pendingCount() > 0 {
		t.repair.kickNow()
	}
}
