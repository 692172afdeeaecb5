package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// now and since are the harness's only reads of the wall clock: timing is
// its purpose, and no timing ever reaches a program input.
//
//mslint:allow nondet a benchmark measures wall-clock time; nothing timed feeds the diagnosis
func now() time.Time { return time.Now() }

//mslint:allow nondet a benchmark measures wall-clock time; nothing timed feeds the diagnosis
func since(t time.Time) time.Duration { return time.Since(t) }

// buildDir, under the checkout root, holds everything the harness builds
// or writes while it runs, except the span files.
const buildDir = ".bench_build"

// cleanups run once on every way out: return, failure, panic, signal.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

// onExit registers fn to run when the harness ends.
func onExit(fn func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	cleanups.fns = append(cleanups.fns, fn)
}

// cleanup runs the registered functions, newest first, each once.
func cleanup() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// cleanupOnSignal kills children and removes temp dirs on Ctrl-C or TERM.
func cleanupOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-c
		cleanup()
		os.Exit(130)
	}()
}

// findRoot returns the checkout root: the nearest directory at or above
// the working directory that holds the microscope module and cmd/msserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "msserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout of the microscope module at or above the working directory (cmd/msserve not found)")
		}
		dir = parent
	}
}

// buildBinaries compiles msserve and msdiag from the checkout's source
// into buildDir/bin and returns that directory.
func buildBinaries(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/msserve", "./cmd/msdiag")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/msserve ./cmd/msdiag: %v\n%s", err, out)
	}
	return bin, nil
}

// tempDir makes a directory under buildDir that is removed on exit.
func tempDir(root string) (string, error) {
	base := filepath.Join(root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return dir, nil
}

// daemon is a running msserve child.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	// exited is closed once the process has ended; err is then its Wait
	// result.
	exited chan struct{}
	err    error
}

// startDaemon launches msserve on a free loopback port and waits for its
// "serving tenant API on ADDR" line.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(bin, "msserve"), "-listen", "127.0.0.1:0")
	d.cmd.Stderr = &d.stderr
	// The child must not outlive a harness that is killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	onExit(d.kill)
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "serving tenant API on "); ok {
				addr <- a
			}
		}
		d.err = d.cmd.Wait()
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.exited:
		return nil, d.died()
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("msserve did not start serving within 30s\n%s", d.stderr.String())
	}
}

// died describes an msserve that ended on its own, with what it wrote to
// standard error.
func (d *daemon) died() error {
	return fmt.Errorf("msserve exited: %v\n%s", d.err, d.stderr.String())
}

// alive returns died() when the process has ended, nil otherwise.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return d.died()
	default:
		return nil
	}
}

// stop ends the daemon with SIGTERM (its graceful drain) and waits; a
// daemon that does not end in 30s is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.exited
}

// usage is a process's consumption so far.
type usage struct {
	cpu   time.Duration // user + system
	rssMB float64       // peak resident set
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 for every architecture Go runs on.
const clockTick = 100

// procUsage reads a live process's CPU time and peak RSS from /proc.
func procUsage(pid int) (usage, error) {
	var u usage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name, field 2, is parenthesised and may hold spaces;
	// utime and stime are fields 14 and 15.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("/proc/%d/stat: bad times %q %q", pid, f[11], f[12])
	}
	u.cpu = time.Duration(utime+stime) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return u, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, v)
			}
			u.rssMB = kb / 1024
		}
	}
	return u, nil
}

// rusageOf converts a getrusage result (Linux reports Maxrss in KiB).
func rusageOf(ru *syscall.Rusage) usage {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), rssMB: float64(ru.Maxrss) / 1024}
}

// selfUsage is this process's consumption, for -short runs that host the
// serving tier in-process.
func selfUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, err
	}
	return rusageOf(&ru), nil
}
