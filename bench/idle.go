package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// A guest CPU with nothing to run is halted by the hypervisor and
// woken late. In this sandbox a bare /healthz round trip to an
// otherwise idle hsserve read 230 µs with the CPUs allowed to idle and
// 100 µs with them kept awake, and the median latency of serve_open
// swung between 220 and 360 µs from run to run with nothing in the
// program to explain it (165 to 190 µs awake). So while a server is
// measured the benchmark keeps every CPU out of idle, the way latency
// benchmarks boot with idle=poll: one child process per CPU spins under
// SCHED_IDLE, the scheduling class that runs only when nothing else
// wants the CPU and yields at once to any thread that wakes. The
// in-process workloads keep the CPUs busy themselves and run without
// spinners (with them they lose throughput to the spinning sibling).

// spinArg is the argument under which the benchmark re-executes
// itself as a spinner.
const spinArg = "-idle-spin"

// isSpinner reports whether this process was started as a spinner.
func isSpinner() bool { return len(os.Args) == 2 && os.Args[1] == spinArg }

// spin is the spinner's whole life: enter SCHED_IDLE, say so, loop
// until killed.
func spin() {
	runtime.LockOSThread()
	const schedIdle = 5 // SCHED_IDLE of <linux/sched.h>
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "sched_setscheduler(SCHED_IDLE):", errno)
		os.Exit(1)
	}
	fmt.Println("spinning")
	for {
	}
}

// keepAwake starts one spinner per CPU and returns the function that
// ends and reaps them. The spinners die with this process. If a
// spinner cannot be started or cannot enter SCHED_IDLE, none is left
// running and the error says why; the caller measures without.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var spinners []*exec.Cmd
	stop = func() {
		for _, c := range spinners {
			_ = c.Process.Kill() // already gone is fine
			_ = c.Wait()         // reaping only
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, spinArg)
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var stderr strings.Builder
		c.Stderr = &stderr
		stdout, err := c.StdoutPipe()
		if err == nil {
			err = c.Start()
		}
		if err != nil {
			stop()
			return nil, err
		}
		spinners = append(spinners, c)
		ready := make(chan bool, 1) // one send, by the reader below
		go func() { ready <- bufio.NewScanner(stdout).Scan() }()
		reason := "spinner did not report within 10 s"
		select {
		case ok := <-ready:
			if ok {
				continue
			}
			reason = "spinner exited"
		case <-time.After(10 * time.Second):
		}
		stop() // also makes stderr safe to read
		return nil, fmt.Errorf("%s: %s", reason, strings.TrimSpace(stderr.String()))
	}
	return stop, nil
}
