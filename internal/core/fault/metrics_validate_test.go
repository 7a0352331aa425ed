package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestRegisteredMetricNamesValidate holds the chaos backend's exported
// counters to the telemetry naming convention on their own registry; the
// registry test in internal/core checks them again beside every other family.
func TestRegisteredMetricNamesValidate(t *testing.T) {
	reg := telemetry.NewRegistry()
	New(core.NewMemBackend(), Config{}).Register(reg)

	fams := reg.Snapshot()
	if len(fams) == 0 {
		t.Fatal("no metric families registered")
	}
	for _, f := range fams {
		kind, ok := telemetry.KindFromString(f.Kind)
		if !ok {
			t.Errorf("metric %q has unknown kind %q", f.Name, f.Kind)
			continue
		}
		if err := telemetry.ValidateName(f.Name, kind); err != nil {
			t.Errorf("registered metric fails naming convention: %v", err)
		}
	}
}
