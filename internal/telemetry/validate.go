package telemetry

import (
	"fmt"
	"regexp"
	"strings"
)

// Metric naming convention, checked over every family the stack registers
// by the registry test in internal/core:
//
//   - every name is `iofwd_` + snake_case ([a-z0-9_] segments)
//   - counters end in `_total`
//   - histograms end in a unit suffix: `_ns`, `_bytes`, or `_ops`
//   - gauges carry no structural suffix but must not end in `_total`
//     (that would read as a counter to a Prometheus consumer)
//   - `_state` marks an enumeration gauge (a small-integer state machine
//     position, e.g. iofwd_stripe_member_state) and is gauge-only: on a
//     counter or histogram the suffix would misdescribe the series
var nameRE = regexp.MustCompile(`^iofwd(_[a-z0-9]+)+$`)

// histogramUnits are the accepted histogram unit suffixes.
var histogramUnits = []string{"_ns", "_bytes", "_ops"}

// ValidateName reports whether name follows the repository's metric naming
// convention for an instrument of the given kind. It is exported so the
// registry tests and any future runtime gate apply the identical rule.
func ValidateName(name string, kind Kind) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric %q is not iofwd_-prefixed snake_case", name)
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("counter %q must end in _total", name)
		}
		if strings.HasSuffix(name, "_state_total") {
			return fmt.Errorf("counter %q: _state is the enumeration-gauge suffix", name)
		}
	case KindHistogram:
		if strings.HasSuffix(name, "_state") {
			return fmt.Errorf("histogram %q: _state is the enumeration-gauge suffix", name)
		}
		ok := false
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("histogram %q must end in a unit suffix (%s)",
				name, strings.Join(histogramUnits, ", "))
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("gauge %q must not end in _total", name)
		}
	}
	return nil
}

// KindFromString is the inverse of Kind.String, for callers validating
// snapshot output. Unknown strings return (0, false).
func KindFromString(s string) (Kind, bool) {
	switch s {
	case "counter":
		return KindCounter, true
	case "gauge":
		return KindGauge, true
	case "histogram":
		return KindHistogram, true
	}
	return 0, false
}
