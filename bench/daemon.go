package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// buildFwdd compiles cmd/fwdd from the checkout at root into dir, once per
// harness process.
func buildFwdd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "fwdd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/fwdd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/fwdd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running fwdd child and the scratch directory it owns.
type daemon struct {
	cmd     *exec.Cmd
	dir     string // removed by stop
	addr    string // forwarding listener
	statz   string // http://host:port/statz
	logPath string
	logDone chan struct{} // closed once the child's stderr is fully copied
}

// startDaemon spawns fwdd on two kernel-chosen loopback ports and waits for
// both "listening" log lines. dir is created here and removed by stop; the
// child's stderr goes to <dir>/fwdd.log.
func startDaemon(ctx context.Context, bin, dir string, gomaxprocs int, args []string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, logPath: filepath.Join(dir, "fwdd.log"), logDone: make(chan struct{})}
	logf, err := os.Create(d.logPath)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	full := append([]string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, args...)
	d.cmd = exec.Command(bin, full...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start fwdd: %w", err)
	}

	type ports struct{ addr, metrics string }
	found := make(chan ports, 1) // one send: both addresses, once parsed
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		br := bufio.NewReader(stderr)
		var p ports
		for p.addr == "" || p.metrics == "" {
			line, err := br.ReadString('\n')
			io.WriteString(logf, line)
			if err != nil {
				close(found)
				return
			}
			line = strings.TrimSpace(line)
			if i := strings.LastIndex(line, " on "); i >= 0 {
				switch {
				case strings.Contains(line, "serving /metrics"):
					p.metrics = line[i+4:]
				case strings.Contains(line, "listening on"):
					p.addr = line[i+4:]
				}
			}
		}
		found <- p
		io.Copy(logf, br)
	}()

	select {
	case p, ok := <-found:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("fwdd exited before listening: %s", d.logTail())
		}
		d.addr, d.statz = p.addr, "http://"+p.metrics+"/statz"
		return d, nil
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("fwdd did not listen within 20s")
	}
}

// stop kills the child, waits for it and for its log copier, and removes
// its scratch directory (WAL segments included). SIGKILL, not SIGTERM: a
// graceful fwdd drains its WAL first, and nothing here needs that.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.logDone // StderrPipe must be drained before Wait
	d.cmd.Wait()
	os.RemoveAll(d.dir)
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(bytes.TrimSpace(b))
}

// statzSnapshot fetches the daemon's /statz families.
func (d *daemon) statzSnapshot(ctx context.Context) (statz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.statz, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var fams []telemetry.FamilySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&fams); err != nil {
		return nil, fmt.Errorf("decode /statz: %w", err)
	}
	return indexStatz(fams), nil
}

// procSample is the child's cumulative CPU time and syscall-level I/O call
// count, from /proc/<pid>/stat and /proc/<pid>/io.
type procSample struct {
	cpu      time.Duration // utime + stime
	syscalls int64         // syscr + syscw; -1 when /proc/<pid>/io is unreadable
}

// clockTick is the kernel's USER_HZ; 100 on every Linux the Go runtime
// supports.
const clockTick = 10 * time.Millisecond

func (d *daemon) procSample() (procSample, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return procSample{}, err
	}
	cpu, err := parseProcStatCPU(string(stat))
	if err != nil {
		return procSample{}, err
	}
	s := procSample{cpu: cpu, syscalls: -1}
	if io, err := os.ReadFile(filepath.Join("/proc", pid, "io")); err == nil {
		s.syscalls = parseProcIO(string(io))
	}
	return s, nil
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces, so
// fields are counted from the closing parenthesis.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseProcIO returns syscr+syscw from /proc/<pid>/io, -1 if absent.
func parseProcIO(io string) int64 {
	var total int64
	seen := 0
	for _, line := range strings.Split(io, "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok || (k != "syscr" && k != "syscw") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return -1
		}
		total += n
		seen++
	}
	if seen != 2 {
		return -1
	}
	return total
}
