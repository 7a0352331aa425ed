package fault

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wal"
)

// specOf renders cfg in Parse's grammar, every field explicit.
func specOf(c Config) string {
	rate := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return fmt.Sprintf("seed=%d,err=%s,lat=%s:%s,stall=%s:%s,short=%s,openerr=%s,panic=%d,from=%d,until=%d",
		c.Seed, rate(c.ErrRate), rate(c.LatencyRate), c.Latency, rate(c.StallRate), c.Stall,
		rate(c.ShortRate), rate(c.OpenErrRate), c.PanicEvery, c.From, c.Until)
}

// FuzzParseSpec: the -fault and -crash flag strings come from an operator,
// so Parse, ParseMulti and ParseCrash must never panic, and every config
// they accept must survive a round trip — rendered back into the flag
// grammar, it parses again to the same value. A rate that compares unequal
// to itself (NaN) fails the round trip, which is why the rate checks reject
// it.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"err=0.01,lat=0.05:5ms,stall=0.001:250ms,short=0.005,panic=1000,openerr=0.01,seed=42",
		"seed=7;member=2:eio=0.05,from=10,until=40",
		"lat=0.5;member=0:seed=3;member=1:stall=1:1s",
		"mid-batch-append:3,before-truncate:1,after-truncate",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		roundTrip := func(cfg Config) {
			again, err := Parse(specOf(cfg))
			if err != nil || again != cfg {
				t.Fatalf("spec %q: accepted config %+v does not round-trip: got %+v, %v", spec, cfg, again, err)
			}
		}
		if cfg, err := Parse(spec); err == nil {
			roundTrip(cfg)
		}
		if base, members, err := ParseMulti(spec); err == nil {
			roundTrip(base)
			for _, cfg := range members {
				roundTrip(cfg)
			}
		}
		if cs, err := ParseCrash(spec, wal.CrashPoints); err == nil {
			var parts []string
			for point, n := range cs.plan {
				parts = append(parts, fmt.Sprintf("%s:%d", point, n))
			}
			again, err := ParseCrash(strings.Join(parts, ","), wal.CrashPoints)
			if err != nil || !maps.Equal(again.plan, cs.plan) {
				t.Fatalf("crash spec %q: plan %v does not round-trip: %v", spec, cs.plan, err)
			}
		}
	})
}
