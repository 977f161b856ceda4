//go:build !linux

package main

import (
	"errors"
	"time"
)

var errPlatform = errors.New("loopbench measures CPU and memory through Linux getrusage")

func cpuTime() (time.Duration, error) { return 0, errPlatform }

func peakRSSMB() (float64, error) { return 0, errPlatform }
