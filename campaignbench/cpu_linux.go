package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the CPU time all threads of the process have used. Unlike
// wall time it excludes time the host steals from a virtual machine.
func cpuTime() time.Duration {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
