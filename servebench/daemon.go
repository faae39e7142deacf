package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// daemon is one nsserve child process listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	exited chan struct{}
}

// live tracks started daemons so every exit path can kill them.
var (
	liveMu sync.Mutex
	live   = map[*daemon]struct{}{}
)

// killAll kills and reaps every daemon still running.
func killAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// startDaemon launches bin with args plus a loopback ephemeral port,
// and returns once the daemon has written its bound address. The
// daemon may still be loading state behind the listening socket; the
// first request waits for it.
func startDaemon(bin, dir string, args []string, conns int) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	liveMu.Lock()
	live[d] = struct{}{}
	liveMu.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark kills it
		close(d.exited)
	}()

	deadline := time.Now().Add(120 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			if s := strings.TrimSpace(string(b)); strings.Contains(s, ":") && !strings.HasSuffix(s, ":") {
				d.base = "http://" + s
				break
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited during start-up (see %s)", filepath.Join(dir, "daemon.log"))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon did not listen within 120s")
		}
	}
	d.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	return d, nil
}

// kill sends SIGKILL and waits until the process is gone.
func (d *daemon) kill() {
	liveMu.Lock()
	_, ok := live[d]
	delete(live, d)
	liveMu.Unlock()
	if !ok {
		return
	}
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

// reqIDHeader carries the traced run's request id from the client span
// to the handler span.
const reqIDHeader = "X-Bench-Request"

// do sends one request and reads the whole answer. A non-200 status is
// an error; the body is returned for the answer check. A non-zero id is
// sent in reqIDHeader.
func (d *daemon) do(method, path string, body []byte, id int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != 0 {
		req.Header.Set(reqIDHeader, strconv.Itoa(id))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}
