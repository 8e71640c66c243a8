package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a ddosd child process. Its CPU time and peak memory come
// from the kernel's accounting of that process alone, so the load
// generator's own CPU is never counted.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the stderr reader has exited

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every mainstream Linux configuration).
const clockTicks = 100

// startDaemon starts ddosd with a fresh WAL under dir and waits until it
// listens.
func startDaemon(bin string, args []string, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args = append(append([]string(nil), args...),
		"-addr", "127.0.0.1:0", "-wal-dir", filepath.Join(dir, "wal"), "-log-level", "info")
	cmd := exec.Command(bin, args...)
	// If the benchmark itself is killed, take the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ddosd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go d.readLog(stderr, addrc)
	select {
	case addr := <-addrc:
		d.url = "http://" + addr
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	_ = d.stop()
	return nil, fmt.Errorf("ddosd did not start listening: %s", d.lastLines())
}

// readLog drains the daemon's stderr, reporting the listen address from
// the "listening" line and keeping the last lines for error messages.
func (d *daemon) readLog(r io.Reader, addrc chan<- string) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	found := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		if !found && strings.Contains(line, "msg=listening") {
			if i := strings.Index(line, "addr="); i >= 0 {
				found = true
				addrc <- strings.Fields(line[i+len("addr="):])[0]
			}
		}
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop sends SIGTERM, waits for a graceful exit, and kills the process
// if it has not exited within 20 seconds. It returns once the process
// and its log reader are gone.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() { waited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-waited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-waited
		err = errors.New("ddosd did not exit on SIGTERM; killed")
	}
	<-d.done
	return err
}

// cpuSeconds reads the process's user+system CPU seconds.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
