package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is a running `s2rdf serve` child process.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string // 127.0.0.1:port
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	done   chan struct{}
}

// runLoad runs `s2rdf load` to completion and returns its peak RSS in KiB.
func runLoad(bin, nt, dir string) (peakKiB int64, err error) {
	cmd := exec.Command(bin, "load", "-in", nt, "-store", dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("s2rdf load: %v\n%s", err, out.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakKiB = ru.Maxrss
	}
	return peakKiB, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServe starts `s2rdf serve` on a loopback port and returns once
// /healthz answers 200.
func startServe(ctx context.Context, bin, dir string, cacheBytes int64) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"serve", "-store", dir, "-addr", addr, "-drain", "5s"}
	if cacheBytes > 0 {
		args = append(args, "-result-cache-bytes", strconv.FormatInt(cacheBytes, 10))
	}
	cmd := exec.Command(bin, args...)
	s := &serverProc{cmd: cmd, addr: addr, base: "http://" + addr, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	cmd.Stdout = io.Discard
	cmd.Stderr = s.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("s2rdf serve: %w", err)
	}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("s2rdf serve exited early: %s", s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, fmt.Errorf("s2rdf serve did not answer /healthz: %w", ctx.Err())
		default:
		}
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, kills it if it lingers, and waits
// for it to exit.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// cpuTicks reads a process's user+system CPU time in clock ticks
// (USER_HZ, 100 per second on Linux) from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return ut + st, nil
}

const ticksPerSecond = 100

// peakRSS reads a process's resident-set high-water mark in KiB.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
