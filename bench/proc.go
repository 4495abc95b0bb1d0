package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveFlags are the fixed server flags of every workload: one shard
// (this box has two cores, so shard scaling is not measured), an fsync
// per commit group, and the default snapshot cadence.
var serveFlags = []string{"-shards", "1", "-fsync", "batch", "-snapshot-every", "50000"}

// node is one `grca serve` child process.
type node struct {
	name    string
	base    string // http://127.0.0.1:port
	dataDir string
	args    []string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process has been reaped
	logPath string
	peakRSS float64 // MB, last reading of VmHWM
}

// procs tracks every child so that an early exit still kills them all.
type procs struct {
	mu   sync.Mutex
	live map[*node]bool
}

func (p *procs) add(n *node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = map[*node]bool{}
	}
	p.live[n] = true
}

func (p *procs) remove(n *node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, n)
}

// killAll SIGKILLs and reaps whatever is still running.
func (p *procs) killAll() {
	p.mu.Lock()
	var nodes []*node
	for n := range p.live {
		nodes = append(nodes, n)
	}
	p.mu.Unlock()
	for _, n := range nodes {
		n.kill(p)
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startNode launches `grca serve` on a fresh port with serveFlags plus
// extra, its data directory and stderr log named after it under the
// run's work directory.
func (e *env) startNode(name, bundleDir string, extra ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	n := &node{
		name: name, base: "http://" + addr,
		dataDir: filepath.Join(e.workDir, name+"-data"),
		logPath: filepath.Join(e.workDir, name+".log"),
	}
	n.args = append([]string{"serve", "-addr", addr, "-data-dir", n.dataDir, "-bundle", bundleDir}, serveFlags...)
	n.args = append(n.args, extra...)
	return n, e.launch(n)
}

// launch (re)starts the node's process with its recorded arguments.
func (e *env) launch(n *node) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	n.cmd = exec.Command(e.bin, n.args...)
	n.cmd.Stderr = logf
	if err := n.cmd.Start(); err != nil {
		return err
	}
	exited := make(chan struct{})
	n.exited = exited
	go func(cmd *exec.Cmd) {
		cmd.Wait() //nolint:errcheck // every node ends by SIGKILL; the status is the signal
		close(exited)
	}(n.cmd)
	e.procs.add(n)
	return nil
}

// kill SIGKILLs the process, first recording its peak RSS, and reaps it.
func (n *node) kill(p *procs) {
	if n.cmd == nil || n.cmd.Process == nil {
		return
	}
	n.readRSS()
	n.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // already gone is fine
	<-n.exited
	p.remove(n)
	n.cmd = nil
}

// readRSS refreshes peakRSS from the kernel's high-water mark.
func (n *node) readRSS() {
	if n.cmd == nil || n.cmd.Process == nil {
		return
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				n.peakRSS = kb / 1024
			}
		}
	}
}

// writtenBytes is how many bytes the process has caused to be sent to
// the storage layer so far (write_bytes of /proc/<pid>/io).
func (n *node) writtenBytes() (float64, error) {
	if n.cmd == nil || n.cmd.Process == nil {
		return 0, fmt.Errorf("%s is not running", n.name)
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/io has no write_bytes", n.cmd.Process.Pid)
}

// logTail returns the last lines of the node's stderr, for error reports.
func (n *node) logTail() string {
	data, err := os.ReadFile(n.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// waitPhase polls /healthz until the node reports the phase ("" = any),
// failing fast if the process exits first.
func (e *env) waitPhase(n *node, phase string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		var h struct {
			Phase string `json:"phase"`
		}
		if body, err := e.get(n.base + "/healthz"); err == nil && json.Unmarshal(body, &h) == nil {
			if phase == "" || h.Phase == phase {
				return nil
			}
		}
		select {
		case <-n.exited:
			return fmt.Errorf("%s exited before reaching phase %q:\n%s", n.name, phase, n.logTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s: timed out waiting for phase %q:\n%s", n.name, phase, n.logTail())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			// Snapshots and segments are renamed and removed while the
			// server runs; a vanished entry is not an error.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total, err
}

// runTool runs the grca binary with args to completion and returns its
// combined output.
func (e *env) runTool(args ...string) (string, error) {
	var out bytes.Buffer
	cmd := exec.Command(e.bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	return out.String(), err
}

// selfCPU is the user+system CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
