package main

import (
	"os"
	"os/exec"
	"syscall"
	"time"
)

// usage is what the kernel accounted to one finished child process.
type usage struct {
	cpu    time.Duration // user + system
	rssMiB float64       // peak resident set
}

func usageOf(ps *os.ProcessState) usage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{cpu: ps.UserTime() + ps.SystemTime()}
	}
	return usage{
		cpu:    ps.UserTime() + ps.SystemTime(),
		rssMiB: float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
}

// command prepares a child process: temporary files stay inside the
// run's scratch directory, and the child is killed if the benchmark
// dies first, so no server outlives an interrupted run.
func command(work, bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+work)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// setupProbes is how many extra set-ups a run times before measuring,
// so that set-up time is a median of many samples even for a workload
// with few passes.
const setupProbes = 15

// probeSetup times start setupProbes times; start brings the system up
// to the point where it could take work, stops it again, and returns
// the time to that point.
func probeSetup(start func() (time.Duration, error)) ([]float64, error) {
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		d, err := start()
		if err != nil {
			return nil, err
		}
		xs = append(xs, d.Seconds())
	}
	return xs, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
