package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/sapla-serve from the repository at root into
// outDir and returns the binary's path. The Go build cache makes every
// build after the first a sub-second no-op.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", fmt.Errorf("build dir: %w", err)
	}
	bin := filepath.Join(outDir, "sapla-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/sapla-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/sapla-serve in %s: %w\n%s", root, err, out)
	}
	return bin, nil
}

// serverFlags are the sapla-serve flags every workload shares: durable with
// an fsync before every acknowledgement, and no time-triggered background
// work (snapshot, compaction) that would change counts between runs.
func serverFlags(dataDir string, shards int) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-shards", strconv.Itoa(shards),
		"-method", "SAPLA",
		"-m", "12",
		"-sync-every", "1",
		"-snapshot-every", "24h",
		"-compact-every", "-1s",
	}
}

// child is one running sapla-serve process.
type child struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	drained chan struct{} // closed when the stderr reader has finished

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startChild spawns the server and returns once /readyz answers 200. The
// listen address is parsed from the child's log line, so the kernel picks
// the port.
func startChild(ctx context.Context, bin string, flags []string) (*child, error) {
	cmd := exec.Command(bin, flags...)
	// The child must not outlive the load generator on any exit path.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()

	select {
	case a := <-addr:
		c.base = "http://" + a
	case <-c.drained:
		c.kill()
		return nil, fmt.Errorf("server exited before listening:\n%s", c.log())
	case <-ctx.Done():
		c.kill()
		return nil, fmt.Errorf("server did not listen: %w\n%s", ctx.Err(), c.log())
	}
	if err := c.waitReady(ctx); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// waitReady polls /readyz until it answers 200.
func (c *child) waitReady(ctx context.Context) error {
	for {
		if _, err := get(c.base + "/readyz"); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server not ready: %w\n%s", ctx.Err(), c.log())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// log returns the child's last stderr lines.
func (c *child) log() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// peakRSSMiB reads the child's high-water resident set from /proc.
func (c *child) peakRSSMiB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// kill sends SIGKILL and waits until the process and its stderr reader have
// ended. Safe to call more than once.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.drained
	_ = c.cmd.Wait() // the exit status of a killed child carries no information
}
