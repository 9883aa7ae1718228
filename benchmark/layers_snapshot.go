package main

import (
	"time"

	"april/internal/snapshot"
)

var snapshotDrives = []drive{
	// Seal + Open of a 64 MiB payload: the header, copy and FNV-64a
	// checksum every image pays on top of encoding, in MiB/s. Driven on
	// ckpt64 only; the other snapshot.* metrics come from that
	// workload's round trips.
	{metric: "snapshot.seal_mb_per_s", only: "ckpt64", fn: func(e *driveEnv) (float64, error) {
		size := 64 << 20
		if e.sz.smoke {
			size = 1 << 20
		}
		payload := make([]byte, size)
		newRand(e.seed).Read(payload)
		nsPerByte, err := e.perUnit(func() (uint64, time.Duration, error) {
			t0 := time.Now()
			img := snapshot.Seal(payload, 1, 1)
			_, _, err := snapshot.Open(img)
			return uint64(size), time.Since(t0), err
		})
		if err != nil || nsPerByte == 0 {
			return 0, err
		}
		return 1e9 / nsPerByte / (1 << 20), nil
	}},
}
