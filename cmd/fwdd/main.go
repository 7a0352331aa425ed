// Command fwdd runs a real I/O forwarding server (internal/core) on a TCP
// address — the role of the ION-side daemon.
//
//	fwdd -listen :7070 -mode async -workers 4 -bml 256 -backend file -root /tmp/fwd
//	fwdd -listen :7070 -mode direct -backend null
//	fwdd -listen :7070 -metrics :9090   # Prometheus /metrics + JSON /statz
//
// Fault tolerance and chaos:
//
//	fwdd -queue-hw 4096          # shed data ops with EAGAIN past this queue depth
//	fwdd -bml-timeout 2s         # degrade writes to the sync path on BML exhaustion
//	fwdd -fault err=0.01,lat=0.05:5ms,stall=0.001:250ms,short=0.005,panic=1000,seed=42
//
// Crash-safe burst spill (internal/wal): writes that miss BML admission are
// appended to a local write-ahead log and acknowledged instead of degrading
// to the synchronous path; on startup surviving records are replayed before
// the daemon listens. -crash SIGKILLs the process at a named WAL crash
// point for recovery drills.
//
//	fwdd -bml-timeout 20ms -wal-dir /tmp/fwd-wal -wal-sync always
//	fwdd -wal-dir /tmp/fwd-wal -crash after-batch-sync-before-ack:3
//
// Striped + replicated multi-backend tier (internal/stripetier):
//
//	fwdd -backends mem,mem,mem,mem -replicas 2 -stripe-size 65536
//	fwdd -backends /data/a,/data/b,/data/c -replicas 2
//	fwdd -backends mem,mem,mem,mem -fault "seed=7;member=2:eio=1,from=10,until=40"
//
// Each -backends token is "mem", "null", or a directory path; -fault member
// sections scope chaos to one member so failover and repair can be drilled
// deterministically.
//
// On SIGINT/SIGTERM the daemon stops accepting, drains the work queue
// (flushing staged writes), prints a final metrics snapshot to stderr, and
// exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"strings"

	"path/filepath"

	"repro/internal/core"
	"repro/internal/core/fault"
	"repro/internal/stripetier"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to listen on")
	mode := flag.String("mode", "async", "execution model: direct | workqueue | async")
	workers := flag.Int("workers", 4, "worker pool size (paper default: 4)")
	shards := flag.Int("shards", 0, "scheduler shard count (0 = one per worker, capped at GOMAXPROCS)")
	batch := flag.Int("batch", 8, "tasks dequeued per worker wakeup")
	bmlMiB := flag.Int64("bml", 256, "staging memory cap in MiB")
	backendKind := flag.String("backend", "mem", "backend: mem | null | file | sink")
	root := flag.String("root", ".", "root directory for -backend file")
	sinkMiBps := flag.Int64("sink-rate", 100, "bandwidth in MiB/s for -backend sink")
	metricsAddr := flag.String("metrics", "", "address for the observability HTTP listener serving /metrics (Prometheus text) and /statz (JSON); empty disables")
	queueHW := flag.Int("queue-hw", 0, "work-queue high-water mark: shed data ops with EAGAIN past this depth (0 disables)")
	bmlTimeout := flag.Duration("bml-timeout", 0, "staging-pool admission timeout: past it writes degrade to the synchronous path (0 blocks forever)")
	faultSpec := flag.String("fault", "", "chaos backend spec, e.g. err=0.01,lat=0.05:5ms,stall=0.001:250ms,short=0.005,panic=1000,seed=42; with -backends, ';'-separated member=N: sections scope faults to one member (empty disables)")
	backendList := flag.String("backends", "", "comma-separated striped-tier members (each: mem | null | directory path); overrides -backend")
	stripeSize := flag.Int64("stripe-size", 64<<10, "striping unit in bytes for -backends")
	replicas := flag.Int("replicas", 2, "replicas per stripe for -backends (capped at the member count)")
	ejectAfter := flag.Int("eject-after", 0, "consecutive member errors before ejection (0 = stripetier default)")
	probeBackoff := flag.Int64("probe-backoff", 0, "tier ops an ejected member waits before its first half-open probe; doubles per failed probe (0 = stripetier default)")
	walDir := flag.String("wal-dir", "", "directory for the write-ahead spill tier: writes that miss BML admission are logged there and drained asynchronously; surviving records are replayed on startup (empty disables)")
	walSync := flag.String("wal-sync", wal.SyncInterval, "WAL fsync policy: always | interval | never")
	walSegment := flag.Int64("wal-segment", 8<<20, "WAL segment rotation size in bytes")
	walMax := flag.Int64("wal-max", 0, "cap on WAL bytes awaiting drain; past it spills degrade to the sync path (0 = unlimited)")
	crashSpec := flag.String("crash", "", "deterministic crash points for recovery drills, e.g. mid-batch-append:3,before-truncate:1 — SIGKILLs the process at the Nth hit (needs -wal-dir); one of: "+strings.Join(wal.CrashPoints, ", "))
	flag.Parse()

	var m core.Mode
	switch *mode {
	case "direct":
		m = core.ModeDirect
	case "workqueue":
		m = core.ModeWorkQueue
	case "async":
		m = core.ModeAsync
	default:
		fmt.Fprintf(os.Stderr, "fwdd: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *walDir != "" && m != core.ModeAsync {
		// Refused before anything opens or replays the log: the server would
		// ignore the tier, since only async mode acks a write before it runs.
		fmt.Fprintf(os.Stderr, "fwdd: -wal-dir needs -mode async (a %s server never spills)\n", m)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	baseFault, memberFaults, err := fault.ParseMulti(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fwdd: %v\n", err)
		os.Exit(2)
	}

	var backend core.Backend
	var tier *stripetier.Tier
	if *backendList != "" {
		tokens := strings.Split(*backendList, ",")
		members := make([]core.Backend, 0, len(tokens))
		for i, tok := range tokens {
			tok = strings.TrimSpace(tok)
			member, err := memberBackend(tok)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fwdd: -backends member %d: %v\n", i, err)
				os.Exit(2)
			}
			if *faultSpec != "" {
				// Every member gets its own seeded chaos wrapper: explicit
				// member=N: sections win, the rest inherit the base spec
				// under a derived seed so no two members share a schedule.
				cfg, ok := memberFaults[i]
				if !ok {
					cfg = baseFault
					cfg.Seed = fault.DeriveSeed(baseFault.Seed, i)
				}
				fb := fault.New(member, cfg)
				fb.Register(reg, telemetry.L("member", fmt.Sprint(i)))
				member = fb
			}
			members = append(members, member)
		}
		pendingJournal := ""
		if *walDir != "" {
			// The pending set shares the WAL directory: one local durable
			// area for everything that must survive a restart.
			if err := os.MkdirAll(*walDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "fwdd: wal dir: %v\n", err)
				os.Exit(2)
			}
			pendingJournal = filepath.Join(*walDir, "stripe-pending.journal")
		}
		tier, err = stripetier.New(members, stripetier.Config{
			StripeSize: *stripeSize,
			Replicas:   *replicas,
			Health: stripetier.HealthConfig{
				MaxConsecutiveErrs: *ejectAfter,
				ProbeBackoffOps:    *probeBackoff,
			},
			PendingJournal: pendingJournal,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fwdd: %v\n", err)
			os.Exit(2)
		}
		tier.Register(reg)
		backend = tier
		if *faultSpec != "" {
			log.Printf("fwdd: chaos enabled across %d members: %s", len(members), *faultSpec)
		}
		log.Printf("fwdd: striped tier: %d members, %d replicas, %d B stripes",
			tier.Members(), *replicas, *stripeSize)
	} else {
		if len(memberFaults) > 0 {
			fmt.Fprintln(os.Stderr, "fwdd: -fault member sections need -backends")
			os.Exit(2)
		}
		switch *backendKind {
		case "mem":
			backend = core.NewMemBackend()
		case "null":
			backend = core.NullBackend{}
		case "file":
			backend = core.NewFileBackend(*root)
		case "sink":
			backend = core.NewSinkBackend(core.NewMemBackend(), *sinkMiBps<<20, 0)
		default:
			fmt.Fprintf(os.Stderr, "fwdd: unknown backend %q\n", *backendKind)
			os.Exit(2)
		}
		if *faultSpec != "" {
			fb := fault.New(backend, baseFault)
			fb.Register(reg)
			backend = fb
			log.Printf("fwdd: chaos backend enabled: %s", *faultSpec)
		}
	}

	// The write-ahead spill tier opens — and replays any surviving records
	// from a previous incarnation — before the daemon listens, so no client
	// can observe pre-recovery state.
	var spill *wal.Log
	if *walDir != "" {
		cs, err := fault.ParseCrash(*crashSpec, wal.CrashPoints)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fwdd: %v\n", err)
			os.Exit(2)
		}
		var crash func(string)
		if cs.Armed() {
			crash = cs.Fire
			log.Printf("fwdd: crash points armed: %s", *crashSpec)
		}
		walCfg := wal.Config{
			Dir:          *walDir,
			Backend:      backend,
			SegmentBytes: *walSegment,
			Sync:         *walSync,
			MaxBytes:     *walMax,
			Crash:        crash,
		}
		if tier != nil {
			// Drain-into-repair: a spilled record whose drain or recovery
			// replay fails against the tier marks the affected stripes'
			// whole replica chains stale, so the repair loop converges them
			// without a second discovery pass.
			walCfg.DrainFailed = func(name string, off int64, n int) {
				tier.EnqueueRepair(name, off, int64(n))
			}
		}
		lg, rstats, err := wal.Open(walCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fwdd: wal: %v\n", err)
			os.Exit(2)
		}
		lg.Register(reg)
		spill = lg
		if rstats.Segments > 0 {
			log.Printf("fwdd: wal recovery: %d segments scanned, %d records replayed, %d torn tails discarded, %d apply errors",
				rstats.Segments, rstats.Replayed, rstats.Torn, rstats.Errors)
		}
		log.Printf("fwdd: wal spill tier at %s (sync=%s, segment=%d B)", *walDir, *walSync, *walSegment)
	} else if *crashSpec != "" {
		fmt.Fprintln(os.Stderr, "fwdd: -crash needs -wal-dir")
		os.Exit(2)
	}

	cfg := core.Config{
		Mode:           m,
		Workers:        *workers,
		Shards:         *shards,
		Batch:          *batch,
		BMLBytes:       *bmlMiB << 20,
		Backend:        backend,
		Metrics:        reg,
		QueueHighWater: *queueHW,
		BMLTimeout:     *bmlTimeout,
	}
	if spill != nil {
		cfg.Spill = spill
	}
	srv := core.NewServer(cfg)
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Metrics().Handler())
		mux.Handle("/statz", srv.Metrics().StatzHandler())
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("fwdd: metrics listener: %v", err)
		}
		log.Printf("fwdd: serving /metrics and /statz on %s", ml.Addr())
		go func() {
			if err := http.Serve(ml, mux); err != nil {
				log.Printf("fwdd: metrics server: %v", err)
			}
		}()
	}

	// Graceful shutdown: stop accepting, let the worker pool drain the work
	// queue (which flushes staged writes), then dump a final snapshot.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("fwdd: %v: stopping accept loop and draining staged writes", sig)
		if err := srv.Close(); err != nil {
			log.Printf("fwdd: close: %v", err)
		}
	}()

	kind := *backendKind
	if tier != nil {
		kind = fmt.Sprintf("striped[%d]", tier.Members())
	}
	log.Printf("fwdd: %s mode, %d workers, %d MiB BML, %s backend, listening on %s",
		m, *workers, *bmlMiB, kind, l.Addr())
	if err := srv.Serve(l); err != nil {
		log.Fatal(err)
	}
	if spill != nil {
		// Drain every spilled record to the backend before the tier (and
		// the process) goes away.
		if err := spill.Close(); err != nil {
			log.Printf("fwdd: wal close: %v", err)
		}
	}
	if tier != nil {
		_ = tier.Close()
	}
	fmt.Fprintln(os.Stderr, "fwdd: final metrics snapshot:")
	if err := srv.Metrics().WritePrometheus(os.Stderr); err != nil {
		log.Printf("fwdd: snapshot: %v", err)
	}
	log.Print("fwdd: shutdown complete")
}

// memberBackend builds one striped-tier member from a -backends token:
// "mem", "null", or a directory path for a file backend.
func memberBackend(tok string) (core.Backend, error) {
	switch tok {
	case "":
		return nil, fmt.Errorf("empty member token")
	case "mem":
		return core.NewMemBackend(), nil
	case "null":
		return core.NullBackend{}, nil
	default:
		if err := os.MkdirAll(tok, 0o755); err != nil {
			return nil, fmt.Errorf("member directory %q: %w", tok, err)
		}
		return core.NewFileBackend(tok), nil
	}
}
