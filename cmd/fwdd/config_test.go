package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// parseFlags binds a fresh ServerConfig to args exactly as main does.
func parseFlags(t *testing.T, args ...string) *ServerConfig {
	t.Helper()
	fs := flag.NewFlagSet("fwdd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return cfg
}

// TestValidate has one row per rule: each bad command line is refused with
// an EINVAL-wrapped error naming the flag, and its nearest good neighbour
// passes.
func TestValidate(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	cases := []struct {
		args []string
		want string // substring of the error; "" means valid
	}{
		{nil, ""},
		{[]string{"-mode", "direct", "-backend", "null"}, ""},
		{[]string{"-mode", "workqueue", "-backend", "file", "-root", "/nonexistent"}, ""},
		{[]string{"-mode", "sync"}, `unknown -mode "sync"`},
		{[]string{"-backend", "tape"}, `unknown -backend "tape"`},
		{[]string{"-backend", "tape", "-backends", "mem,null,/data/a"}, ""},
		{[]string{"-backends", "mem,,mem"}, "-backends member 1 is empty"},
		{[]string{"-backends", "mem, "}, "-backends member 1 is empty"},
		{[]string{"-fault", "err=2"}, "-fault: fault: err wants a rate in [0,1]"},
		{[]string{"-fault", "member=0:err=1"}, "-fault member sections need -backends"},
		{[]string{"-backends", "mem,mem", "-fault", "seed=7;member=1:eio=1"}, ""},
		{[]string{"-backends", "mem,mem", "-fault", "seed=7;member=2:eio=1"}, "-fault names member 2, but -backends has 2 members"},
		{[]string{"-wal-sync", "sometimes"}, `unknown -wal-sync "sometimes"`},
		{[]string{"-crash", "before-truncate:1"}, "-crash needs -wal-dir"},
		{[]string{"-wal-dir", walDir, "-crash", "before-truncate:1,mid-batch-append:3"}, ""},
		{[]string{"-wal-dir", walDir, "-mode", "direct"}, "-wal-dir needs -mode async (a direct server never spills)"},
		{[]string{"-wal-dir", walDir, "-mode", "workqueue"}, "-wal-dir needs -mode async (a workqueue server never spills)"},
		{[]string{"-wal-dir", walDir, "-crash", "before-truncte:1"}, `-crash: fault: unknown crash point "before-truncte"`},
		{[]string{"-wal-dir", walDir, "-crash", "before-truncate:0"}, "wants point:N with N >= 1"},
	}
	for _, f := range []string{"-workers", "-batch", "-bml", "-sink-rate", "-stripe-size",
		"-replicas", "-eject-after", "-probe-backoff", "-wal-segment", "-wal-max"} {
		cases = append(cases, struct {
			args []string
			want string
		}{[]string{f, "-1"}, f + " is negative"})
	}
	cases = append(cases, struct {
		args []string
		want string
	}{[]string{"-bml-timeout", "-1ms"}, "-bml-timeout is negative"})

	for _, tc := range cases {
		err := parseFlags(t, tc.args...).Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%q: %v, want valid", tc.args, err)
			}
			continue
		}
		if !errors.Is(err, core.EINVAL) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: %v, want EINVAL mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestEveryFieldHasAFlag pins the binding as one flag per ServerConfig field,
// so a field cannot be added that the command line cannot set.
func TestEveryFieldHasAFlag(t *testing.T) {
	fs := flag.NewFlagSet("fwdd", flag.ContinueOnError)
	bindFlags(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if fields := reflect.TypeOf(ServerConfig{}).NumField(); n != fields {
		t.Fatalf("%d flags bound for %d ServerConfig fields", n, fields)
	}
}

// TestOpenServesStripedSpillingDaemon builds the most composed daemon the
// flags describe — a chaos-wrapped striped tier under a spill tier — and
// drives a write and its readback through it over loopback TCP.
func TestOpenServesStripedSpillingDaemon(t *testing.T) {
	dir := t.TempDir()
	cfg := parseFlags(t, "-backends", "mem,mem,"+filepath.Join(dir, "m2"), "-replicas", "2",
		"-fault", "seed=7;member=1:eio=1,from=0,until=4", "-wal-dir", filepath.Join(dir, "wal"),
		"-wal-sync", "always", "-bml", "1", "-bml-timeout", "1ms")
	d, err := cfg.open()
	if err != nil {
		t.Fatal(err)
	}
	if d.tier == nil || d.tier.Members() != 3 || d.spill == nil {
		t.Fatalf("open built tier=%v spill=%v, want a 3-member tier and a spill tier", d.tier, d.spill)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.srv.Serve(l) }()

	ctx := context.Background()
	cl, err := core.ClientConfig{Timeout: 10 * time.Second}.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	f, err := cl.Open(ctx, "composed")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("fwdd"), 64<<10)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("readback: n=%d err=%v equal=%v", n, err, bytes.Equal(got, want))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := d.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	d.close()
}
