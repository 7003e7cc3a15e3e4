package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clkTck is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clkTck = 100

// procUsage is a process's CPU time and peak resident set so far.
type procUsage struct {
	CPU     time.Duration // user + system
	PeakRSS int64         // VmHWM, bytes
}

// readUsage reads pid's usage from /proc ("self" for this process).
func readUsage(pid string) (procUsage, error) {
	var u procUsage
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, err
	}
	// The command name (field 2) may hold spaces; the fields after it
	// start past the last ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return u, fmt.Errorf("short /proc/%s/stat", pid)
	}
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("parse /proc/%s/stat", pid)
	}
	u.CPU = time.Duration(utime+stime) * time.Second / clkTck

	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return u, fmt.Errorf("parse VmHWM: %w", err)
			}
			u.PeakRSS = kb << 10
		}
	}
	return u, sc.Err()
}

// hostSteal reads the host-wide CPU time from /proc/stat: the time the
// hypervisor ran something else while a vCPU wanted to run (steal), and
// the total over all states, both in USER_HZ ticks.
func hostSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter reports the share of host CPU time stolen by the hypervisor
// over an interval: context for a noisy run, not a metric.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := hostSteal()
	return stealMeter{s, t}
}

// print writes the share since start.
func (m stealMeter) print(phase string) {
	s, t := hostSteal()
	if t <= m.total {
		return
	}
	fmt.Printf("host steal during %s: %.1f%% of CPU time\n", phase, 100*float64(s-m.steal)/float64(t-m.total))
}

// selfCPU returns this process's user+system CPU time at microsecond
// resolution (the /proc tick is too coarse for per-pass deltas).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// flushWrites writes every dirty page back to disk and commits the file
// systems' journals. The kernel writes a page back about 30 s after it was
// dirtied and commits deletions in the background, so the store writes of
// one phase, or the temp stores an earlier run removed, would otherwise
// reach the disk at a moment set by the runs' lengths, inside whichever
// phase is timed then. Each timed phase starts from a flushed page cache
// instead.
func flushWrites() { syscall.Sync() }

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// cleanup holds what a run must undo on every exit path: child processes
// to kill and wait for, and directories to remove. A signal runs it and
// exits non-zero.
var cleanup = &cleaner{}

// cleaner is safe for concurrent use: a signal may arrive while the run is
// starting children or making directories. Once run has begun, it refuses
// new directories and kills new children at once, and a second run waits
// for the first to finish, so the process never exits halfway through.
type cleaner struct {
	runMu  sync.Mutex // held for a whole run
	mu     sync.Mutex // guards the fields below
	closed bool
	procs  map[*exec.Cmd]bool
	dirs   []string
}

// track registers a started child.
func (c *cleaner) track(cmd *exec.Cmd) {
	c.mu.Lock()
	if c.procs == nil {
		c.procs = make(map[*exec.Cmd]bool)
	}
	c.procs[cmd] = true
	closed := c.closed
	c.mu.Unlock()
	if closed {
		c.stop(cmd)
	}
}

// stop kills a child and waits for it to end.
func (c *cleaner) stop(cmd *exec.Cmd) {
	c.mu.Lock()
	tracked := c.procs[cmd]
	delete(c.procs, cmd)
	c.mu.Unlock()
	if !tracked {
		return
	}
	_ = cmd.Process.Kill() // an already-exited child is fine
	_ = cmd.Wait()         // its exit status is "killed"; nothing to report
}

// tempDir makes a directory under root that run removes.
func (c *cleaner) tempDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", fmt.Errorf("stopping: no new directories")
	}
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", err
	}
	c.dirs = append(c.dirs, dir)
	return dir, nil
}

// run stops every tracked child and removes every temp directory.
func (c *cleaner) run() {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	c.mu.Lock()
	c.closed = true
	procs := make([]*exec.Cmd, 0, len(c.procs))
	for p := range c.procs {
		procs = append(procs, p)
	}
	dirs := c.dirs
	c.dirs = nil
	c.mu.Unlock()
	for _, p := range procs {
		c.stop(p)
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort on the way out
	}
}

// onSignal cleans up and exits non-zero on SIGINT or SIGTERM.
func onSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping children and removing temp dirs\n", sig)
		cleanup.run()
		os.Exit(130)
	}()
}
