package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/core/fault"
	"repro/internal/stripetier"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// ServerConfig is everything fwdd is told on its command line, one field per
// flag. Validate checks every rule that needs no I/O, so a bad command line
// is refused before anything is created, opened or replayed; open builds the
// daemon the config describes.
type ServerConfig struct {
	Listen       string
	Metrics      string
	Mode         string
	Workers      int
	Batch        int
	BMLMiB       int64
	Backend      string
	Root         string
	SinkMiBps    int64
	BMLTimeout   time.Duration
	Fault        string
	Backends     string
	StripeSize   int64
	Replicas     int
	EjectAfter   int
	ProbeBackoff int64
	WALDir       string
	WALSync      string
	WALSegment   int64
	WALMax       int64
	Crash        string
}

// bindFlags registers one flag per ServerConfig field on fs, with fwdd's
// defaults, and returns the config the flags parse into.
func bindFlags(fs *flag.FlagSet) *ServerConfig {
	c := new(ServerConfig)
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:7070", "address to listen on")
	fs.StringVar(&c.Mode, "mode", "async", "execution model: direct | workqueue | async")
	fs.IntVar(&c.Workers, "workers", 4, "worker pool size (paper default: 4)")
	fs.IntVar(&c.Batch, "batch", 8, "tasks dequeued per worker wakeup")
	fs.Int64Var(&c.BMLMiB, "bml", 256, "staging memory cap in MiB")
	fs.StringVar(&c.Backend, "backend", "mem", "backend: mem | null | file | sink")
	fs.StringVar(&c.Root, "root", ".", "root directory for -backend file")
	fs.Int64Var(&c.SinkMiBps, "sink-rate", 100, "bandwidth in MiB/s for -backend sink")
	fs.StringVar(&c.Metrics, "metrics", "", "address for the observability HTTP listener serving /metrics (Prometheus text) and /statz (JSON); empty disables")
	fs.DurationVar(&c.BMLTimeout, "bml-timeout", 0, "staging-pool admission timeout without -wal-dir: past it writes degrade to the synchronous path (0 blocks forever); with -wal-dir writes never wait for admission, so it has no effect")
	fs.StringVar(&c.Fault, "fault", "", "chaos backend spec, e.g. err=0.01,lat=0.05:5ms,stall=0.001:250ms,short=0.005,panic=1000,seed=42; with -backends, ';'-separated member=N: sections scope faults to one member (empty disables)")
	fs.StringVar(&c.Backends, "backends", "", "comma-separated striped-tier members (each: mem | null | directory path); overrides -backend")
	fs.Int64Var(&c.StripeSize, "stripe-size", 64<<10, "striping unit in bytes for -backends")
	fs.IntVar(&c.Replicas, "replicas", 2, "replicas per stripe for -backends (capped at the member count)")
	fs.IntVar(&c.EjectAfter, "eject-after", 0, "consecutive member errors before ejection (0 = stripetier default)")
	fs.Int64Var(&c.ProbeBackoff, "probe-backoff", 0, "tier ops an ejected member waits before its first half-open probe; doubles per failed probe (0 = stripetier default)")
	fs.StringVar(&c.WALDir, "wal-dir", "", "directory for the write-ahead spill tier: a write that finds the staging pool full is logged there at once, without waiting, and drained asynchronously; surviving records are replayed on startup (needs -mode async; empty disables)")
	fs.StringVar(&c.WALSync, "wal-sync", wal.SyncInterval, "WAL fsync policy: always | interval | never")
	fs.Int64Var(&c.WALSegment, "wal-segment", 8<<20, "WAL segment rotation size in bytes")
	fs.Int64Var(&c.WALMax, "wal-max", 0, "cap on WAL bytes awaiting drain; past it spills degrade to the sync path (0 = unlimited)")
	fs.StringVar(&c.Crash, "crash", "", "deterministic crash points for recovery drills, e.g. mid-batch-append:3,before-truncate:1 — SIGKILLs the process at the Nth hit (needs -wal-dir); one of: "+strings.Join(wal.CrashPoints, ", "))
	return c
}

// plan is a ServerConfig that passed validation, its flag strings parsed.
type plan struct {
	mode         core.Mode
	members      []string // -backends tokens; nil for a single -backend
	baseFault    fault.Config
	memberFaults map[int]fault.Config
	crash        *fault.CrashSet
}

var (
	modes        = []core.Mode{core.ModeDirect, core.ModeWorkQueue, core.ModeAsync}
	backendKinds = []string{"mem", "null", "file", "sink"}
	walSyncs     = []string{wal.SyncAlways, wal.SyncInterval, wal.SyncNever}
)

// Validate reports the first rule the config breaks, wrapped in EINVAL. It
// touches nothing outside the config.
func (c *ServerConfig) Validate() error {
	_, err := c.plan()
	return err
}

func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{core.EINVAL}, args...)...)
}

// plan checks every rule in order and parses each flag string once, for
// Validate to report and open to build from.
func (c *ServerConfig) plan() (plan, error) {
	var p plan
	i := slices.IndexFunc(modes, func(m core.Mode) bool { return m.String() == c.Mode })
	if i < 0 {
		return p, invalid("unknown -mode %q (want direct | workqueue | async)", c.Mode)
	}
	p.mode = modes[i]
	for _, f := range []struct {
		flag string
		v    int64
	}{
		{"-workers", int64(c.Workers)}, {"-batch", int64(c.Batch)},
		{"-bml", c.BMLMiB}, {"-sink-rate", c.SinkMiBps},
		{"-bml-timeout", int64(c.BMLTimeout)}, {"-stripe-size", c.StripeSize},
		{"-replicas", int64(c.Replicas)}, {"-eject-after", int64(c.EjectAfter)},
		{"-probe-backoff", c.ProbeBackoff}, {"-wal-segment", c.WALSegment}, {"-wal-max", c.WALMax},
	} {
		if f.v < 0 {
			return p, invalid("%s is negative", f.flag)
		}
	}
	if c.Backends != "" {
		p.members = strings.Split(c.Backends, ",")
		for i, tok := range p.members {
			if p.members[i] = strings.TrimSpace(tok); p.members[i] == "" {
				return p, invalid("-backends member %d is empty", i)
			}
		}
	} else if !slices.Contains(backendKinds, c.Backend) {
		return p, invalid("unknown -backend %q (want %s)", c.Backend, strings.Join(backendKinds, " | "))
	}
	var err error
	if p.baseFault, p.memberFaults, err = fault.ParseMulti(c.Fault); err != nil {
		return p, invalid("-fault: %v", err)
	}
	for m := range p.memberFaults {
		if p.members == nil {
			return p, invalid("-fault member sections need -backends")
		}
		if m >= len(p.members) {
			return p, invalid("-fault names member %d, but -backends has %d members", m, len(p.members))
		}
	}
	if !slices.Contains(walSyncs, c.WALSync) {
		return p, invalid("unknown -wal-sync %q (want %s)", c.WALSync, strings.Join(walSyncs, " | "))
	}
	if c.WALDir == "" {
		if c.Crash != "" {
			return p, invalid("-crash needs -wal-dir")
		}
		return p, nil
	}
	if p.mode != core.ModeAsync {
		// The server would ignore the tier, since only async mode acks a
		// write before it runs.
		return p, invalid("-wal-dir needs -mode async (a %s server never spills)", p.mode)
	}
	if p.crash, err = fault.ParseCrash(c.Crash, wal.CrashPoints); err != nil {
		return p, invalid("-crash: %v", err)
	}
	return p, nil
}

// daemon is what open builds: the server, plus the tiers behind it that must
// close after it does.
type daemon struct {
	srv   *core.Server
	tier  *stripetier.Tier // nil without -backends
	spill *wal.Log         // nil without -wal-dir
}

// open validates the config, then builds the backend, the striped and spill
// tiers and the server, all on one telemetry registry. The spill tier opens —
// and replays any records a previous incarnation left — before open returns,
// so no client can observe pre-recovery state.
func (c *ServerConfig) open() (*daemon, error) {
	p, err := c.plan()
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	d := new(daemon)
	backend, err := c.backend(p, reg, d)
	if err != nil {
		return nil, err
	}
	if c.WALDir != "" {
		if d.spill, err = c.openSpill(p, backend, reg, d.tier); err != nil {
			d.close()
			return nil, err
		}
	}
	cfg := core.Config{
		Mode:       p.mode,
		Workers:    c.Workers,
		Batch:      c.Batch,
		BMLBytes:   c.BMLMiB << 20,
		Backend:    backend,
		Metrics:    reg,
		BMLTimeout: c.BMLTimeout,
	}
	if d.spill != nil {
		cfg.Spill = d.spill // a nil *wal.Log would be a non-nil Spiller
	}
	d.srv = core.NewServer(cfg)
	return d, nil
}

// backend builds the single -backend, or the striped tier over -backends
// (recorded in d.tier), each wrapped in its seeded chaos schedule when
// -fault is set.
func (c *ServerConfig) backend(p plan, reg *telemetry.Registry, d *daemon) (core.Backend, error) {
	if p.members == nil {
		var b core.Backend
		switch c.Backend {
		case "mem":
			b = core.NewMemBackend()
		case "null":
			b = core.NullBackend{}
		case "file":
			b = core.NewFileBackend(c.Root)
		case "sink":
			b = core.NewSinkBackend(core.NewMemBackend(), c.SinkMiBps<<20, 0)
		}
		if c.Fault != "" {
			fb := fault.New(b, p.baseFault)
			fb.Register(reg)
			b = fb
			log.Printf("fwdd: chaos backend enabled: %s", c.Fault)
		}
		return b, nil
	}
	members := make([]core.Backend, len(p.members))
	for i, tok := range p.members {
		switch tok {
		case "mem":
			members[i] = core.NewMemBackend()
		case "null":
			members[i] = core.NullBackend{}
		default:
			if err := os.MkdirAll(tok, 0o755); err != nil {
				return nil, fmt.Errorf("-backends member %d: %w", i, err)
			}
			members[i] = core.NewFileBackend(tok)
		}
		if c.Fault != "" {
			// Every member gets its own seeded chaos wrapper: explicit
			// member=N: sections win, the rest inherit the base spec under a
			// derived seed so no two members share a schedule.
			cfg, ok := p.memberFaults[i]
			if !ok {
				cfg = p.baseFault
				cfg.Seed = fault.DeriveSeed(p.baseFault.Seed, i)
			}
			fb := fault.New(members[i], cfg)
			fb.Register(reg, telemetry.L("member", fmt.Sprint(i)))
			members[i] = fb
		}
	}
	pendingJournal := ""
	if c.WALDir != "" {
		// The pending set shares the WAL directory: one local durable area
		// for everything that must survive a restart.
		if err := os.MkdirAll(c.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		pendingJournal = filepath.Join(c.WALDir, "stripe-pending.journal")
	}
	tier, err := stripetier.New(members, stripetier.Config{
		StripeSize: c.StripeSize,
		Replicas:   c.Replicas,
		Health: stripetier.HealthConfig{
			MaxConsecutiveErrs: c.EjectAfter,
			ProbeBackoffOps:    c.ProbeBackoff,
		},
		PendingJournal: pendingJournal,
	})
	if err != nil {
		return nil, err
	}
	tier.Register(reg)
	d.tier = tier
	if c.Fault != "" {
		log.Printf("fwdd: chaos enabled across %d members: %s", len(members), c.Fault)
	}
	log.Printf("fwdd: striped tier: %d members, %d replicas, %d B stripes",
		tier.Members(), c.Replicas, c.StripeSize)
	return tier, nil
}

// openSpill opens the write-ahead spill tier over backend, replaying what a
// previous incarnation left in -wal-dir.
func (c *ServerConfig) openSpill(p plan, backend core.Backend, reg *telemetry.Registry, tier *stripetier.Tier) (*wal.Log, error) {
	cfg := wal.Config{
		Dir:          c.WALDir,
		Backend:      backend,
		SegmentBytes: c.WALSegment,
		Sync:         c.WALSync,
		MaxBytes:     c.WALMax,
	}
	if p.crash.Armed() {
		cfg.Crash = p.crash.Fire
		log.Printf("fwdd: crash points armed: %s", c.Crash)
	}
	if tier != nil {
		// Drain-into-repair: a spilled record whose drain or recovery replay
		// fails against the tier marks the affected stripes' whole replica
		// chains stale, so the repair loop converges them without a second
		// discovery pass.
		cfg.DrainFailed = func(name string, off int64, n int) {
			tier.EnqueueRepair(name, off, int64(n))
		}
	}
	lg, rstats, err := wal.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lg.Register(reg)
	if rstats.Segments > 0 {
		log.Printf("fwdd: wal recovery: %d segments scanned, %d records replayed, %d torn tails discarded, %d apply errors",
			rstats.Segments, rstats.Replayed, rstats.Torn, rstats.Errors)
	}
	log.Printf("fwdd: wal spill tier at %s (sync=%s, segment=%d B)", c.WALDir, c.WALSync, c.WALSegment)
	return lg, nil
}

// close drains every spilled record to the backend, then stops the striped
// tier's repair loop. Call it once the server has stopped serving.
func (d *daemon) close() {
	if d.spill != nil {
		if err := d.spill.Close(); err != nil {
			log.Printf("fwdd: wal close: %v", err)
		}
	}
	if d.tier != nil {
		_ = d.tier.Close()
	}
}
