package main

import (
	"syscall"
	"time"
)

// wallNow reads the wall clock. The benchmark's spans and wall-time
// figures are its measurements, not simulation logic; every wall-clock
// read goes through here.
func wallNow() time.Time {
	//gflint:ignore wallclock the benchmark measures host time
	return time.Now()
}

// cpuClock reads the process's CPU time: user plus system time of all
// its threads. Unlike the wall clock it does not advance while the
// host deschedules the machine, so on a shared VM it measures the
// work a round costs rather than the neighbours' load.
type cpuClock struct{ ru syscall.Rusage }

func (c *cpuClock) now() time.Duration {
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &c.ru); err != nil {
		return 0
	}
	return time.Duration(c.ru.Utime.Nano() + c.ru.Stime.Nano())
}
