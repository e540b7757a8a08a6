package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/rpc"
)

// env is what every repetition shares: the repo checkout, the built
// binaries, the pretrained store and a scratch directory for daemon logs.
type env struct {
	root     string // checkout root (holds go.mod and cmd/)
	edgedBin string
	semkbBin string
	runDir   string // removed on exit
	kbDir    string
	// pretrainS is the wall time of `semkb -pretrain`, measured once.
	pretrainS  float64
	storeBytes int64
	// yard is the reference load every slice's timings are scaled by.
	yard *yardstick
}

// findRoot walks up from the working directory to the checkout root, so
// the benchmark runs both from the root (the driver, run.sh) and from
// bench/ (`go run -C bench .`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "edged", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout root (go.mod + cmd/edged) above the working directory")
		}
		dir = parent
	}
}

// setup builds edged and semkb from the checkout's source and pretrains
// the shared store. Everything it writes stays under .bench_build/.
func setup() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:     root,
		edgedBin: filepath.Join(build, "bin", "edged"),
		semkbBin: filepath.Join(build, "bin", "semkb"),
		runDir:   filepath.Join(build, "run-"+strconv.Itoa(os.Getpid())),
	}
	e.kbDir = filepath.Join(e.runDir, "kb")
	if err := os.MkdirAll(e.kbDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", filepath.Join(build, "bin")+string(os.PathSeparator), "./cmd/edged", "./cmd/semkb")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: go build: %w\n%s", err, out)
	}
	start := time.Now()
	pre := exec.Command(e.semkbBin, "-pretrain", "-out", e.kbDir, "-seed", strconv.Itoa(systemSeed))
	if out, err := pre.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: semkb -pretrain: %w\n%s", err, out)
	}
	e.pretrainS = time.Since(start).Seconds()
	entries, err := os.ReadDir(e.kbDir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			e.storeBytes += info.Size()
		}
	}
	if e.yard, err = newYardstick(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) cleanup() {
	killAll()
	if e.yard != nil {
		e.yard.close()
	}
	os.RemoveAll(e.runDir)
}

// daemon is one spawned edged child in its own process group.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited bool
}

// live tracks running children so that any failure path (and a signal to
// the benchmark itself) can kill them.
var (
	liveMu sync.Mutex
	live   = map[*daemon]struct{}{}
)

// killAll SIGKILLs the process group of every child still running.
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

// reservePorts picks n free loopback ports by binding :0, so a mesh's
// static peer list is complete before any member boots.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// spawn execs one edged with the shared store and system seed.
func (e *env) spawn(name, addr string, extra []string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(e.runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-kb", e.kbDir, "-seed", strconv.Itoa(systemSeed)}, extra...)
	cmd := exec.Command(e.edgedBin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Own process group, so a failure path can kill whatever the child
	// forked; Pdeathsig, so the child dies even if the benchmark itself is
	// SIGKILLed and never reaches a failure path.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("bench: spawn %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf}
	liveMu.Lock()
	live[d] = struct{}{}
	liveMu.Unlock()
	return d, nil
}

// waitPing polls until the daemon answers a ping.
func (d *daemon) waitPing(deadline time.Time) error {
	for {
		cl, err := rpc.Dial(d.addr)
		if err == nil {
			err = cl.Ping()
			cl.Close()
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: daemon %s not up: %w\n%s", d.addr, err, d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (d *daemon) reaped() {
	d.exited = true
	d.log.Close()
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// kill SIGKILLs the child's process group and reaps it.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	d.cmd.Wait()
	d.reaped()
}

// terminate SIGTERMs the daemon and requires a clean exit 0.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		d.reaped()
		if err != nil {
			return fmt.Errorf("bench: daemon %s exited uncleanly on SIGTERM: %w\n%s", d.addr, err, d.logTail())
		}
		return nil
	case <-time.After(20 * time.Second):
		syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-done
		d.reaped()
		return fmt.Errorf("bench: daemon %s ignored SIGTERM for 20s", d.addr)
	}
}

// cpuSeconds returns the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) { return procCPUSeconds(d.cmd.Process.Pid) }

// procCPUSeconds reads a process's CPU-time clock. It counts nanoseconds,
// where the 10 ms ticks of /proc/<pid>/stat would quantise a 100 ms slice
// to several percent.
func procCPUSeconds(pid int) (float64, error) {
	// The clock id of another process's CPU clock, as clock_getcpuclockid
	// builds it: (^pid << 3) | CPUCLOCK_SCHED.
	id := int32(^uint32(pid)<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("bench: cpu clock of process %d: %w", pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// survivors lists processes still running the benchmark's edged binary.
func survivors(bin string) []int {
	var pids []int
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	for _, ent := range entries {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		if exe, err := os.Readlink(filepath.Join("/proc", ent.Name(), "exe")); err == nil && exe == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

// selfCPUSeconds returns the benchmark process's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
