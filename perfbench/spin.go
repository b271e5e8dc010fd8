package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: the thread runs only when its CPU
// has nothing else to run, and any other thread that wakes preempts it.
const schedIdle = 5

// spinChild is one idle spinner: a thread under SCHED_IDLE that never
// blocks, so its CPU never halts. On a shared VM host, waking a halted vCPU
// waits for the host's scheduler, and that wait is the largest source of
// run-to-run noise in a workload that blocks and wakes on every request.
// A spinner that cannot lower its own priority exits rather than spin at
// normal priority beside the measured processes.
func spinChild() int {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintln(os.Stderr, "perfbench spinner: SCHED_IDLE:", e)
		return 1
	}
	fmt.Println("spinning")
	for {
	}
}

// startSpinners starts one idle spinner per CPU and waits until each runs
// under SCHED_IDLE. The returned stop kills them and waits for their exits.
func startSpinners() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}
	for range workers() {
		cmd := exec.Command(self, "-child", "spin")
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		// The spinner dies with the benchmark, even when that is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, err
		}
		cmds = append(cmds, cmd)
		if line, _ := bufio.NewReader(out).ReadString('\n'); line != "spinning\n" {
			stop()
			return nil, fmt.Errorf("idle spinner did not start")
		}
	}
	return stop, nil
}
