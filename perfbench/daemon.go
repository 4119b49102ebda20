package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one dpcubed process under test: started with default flags
// except the listen address and a budget cap no run can reach, so the
// ledger never refuses and every response is the mechanism's.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *os.File
	hc     *http.Client
}

// startDaemon execs the binary, sends its stderr to logPath and returns
// once GET /v1/readyz answers 200.
func startDaemon(bin, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	cmd := exec.Command(bin, "-addr", addr, "-epsilon-cap", "1e12")
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = daemonEnv()
	// If the harness dies (killed on a timeout, or a crash), the daemon dies
	// with it rather than outliving the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start dpcubed: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		stderr: logf,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.hc.Get(d.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dpcubed not ready after 20s (log: %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// daemonEnv is the harness environment minus anything that would switch
// the daemon into a non-default mode.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "DPCUBED_") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM (a graceful drain), kills after a grace period, and
// waits for the process to exit.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.hc.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.stderr.Close()
}

// get fetches path and returns the body of a 200 response.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// put sends body to path with PUT and returns the response status and body.
func (d *daemon) put(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPut, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// procCPU is a process's user+system CPU time in milliseconds, read from
// /proc/<pid>/stat (clock ticks, assumed 100 Hz as on every Linux build
// this runs on).
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) * 10, nil
}

// procStatusKB reads one "Key: N kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			v = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/proc status has no %s", key)
}

// selfCPU is this process's user+system CPU time in milliseconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}
