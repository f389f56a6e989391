//go:build !amd64

package main

// cpuModel is only implemented on amd64 (CPUID); other hosts record
// "unknown", so their results are never mistaken for an amd64 host class.
func cpuModel() string { return "unknown" }
