package main

import (
	"april/internal/isa"
	"april/internal/mem"
)

const (
	memPageBytes  = 256 << 10 // mem's demand-paging granule
	memDriveBytes = 16 << 20  // resident region the access stream covers
)

var memDrives = []drive{
	// One checked load or store with full/empty state on a resident
	// page, addresses uniform over 16 MiB.
	{metric: "mem.access_ns", fn: func(e *driveEnv) (float64, error) {
		m := mem.New(driveMemBytes)
		for a := uint32(0); a < memDriveBytes; a += memPageBytes {
			m.MustStore(a, 1)
		}
		r := newRand(e.seed)
		addrs := make([]uint32, 1<<14)
		for i := range addrs {
			addrs[i] = uint32(r.Intn(memDriveBytes/mem.WordBytes)) * mem.WordBytes
		}
		var firstErr error
		ns := e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				prev, _, err := m.Access(addrs[i&(len(addrs)-1)], i&3 == 0, isa.Word(i))
				if err != nil && firstErr == nil {
					firstErr = err
				}
				sink += uint64(prev)
			}
		})
		return ns, firstErr
	}},
	// The first store to an untouched page: what a sparse machine pays
	// per page it ever touches (allocation and the collector included).
	{metric: "mem.first_touch_us_per_page", fn: func(e *driveEnv) (float64, error) {
		const pages = (1 << 30) / memPageBytes
		var m *mem.Memory
		ns := e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				if i%pages == 0 {
					m = mem.New(1 << 30)
				}
				m.MustStore(uint32(i%pages)*memPageBytes, 1)
			}
		})
		return ns / 1e3, nil
	}},
}
