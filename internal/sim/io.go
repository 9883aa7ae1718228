package sim

import (
	"fmt"

	"april/internal/isa"
	"april/internal/proc"
)

// Memory-mapped I/O addresses reached by LDIO/STIO (Section 3.4:
// interprocessor interrupts, the fence counter, block transfers are
// "initiated via memory-mapped I/O instructions").
const (
	IOFence     = 0x00 // read: outstanding flush writebacks (fixnum)
	IONodeID    = 0x04 // read: this node's id (fixnum)
	IONodeCount = 0x08 // read: machine size (fixnum)
	IOIPITarget = 0x10 // write: select the IPI destination node
	IOIPISend   = 0x14 // write: deliver the written payload to the target

	// Block transfer (a DMA engine per node). Addresses are raw byte
	// addresses (word aligned); writing IOBTGo starts the copy, and
	// IOBTStatus reads 1 while it is in progress. Block transfers
	// bypass the coherence protocol (Section 3.4): software flushes
	// the source/destination ranges first, as with the paper's
	// software-enforced coherence.
	IOBTSrc    = 0x20
	IOBTDst    = 0x24
	IOBTLen    = 0x28 // bytes
	IOBTGo     = 0x2c
	IOBTStatus = 0x30
)

// ioCtl implements proc.IOPort for one node.
type ioCtl struct {
	m         *Machine
	node      int
	ctl       *cacheCtl // nil in perfect-memory mode
	ipiTarget int

	btSrc, btDst, btLen uint32
	btReadyAt           uint64
}

func (io *ioCtl) LoadIO(addr uint32) (isa.Word, int, error) {
	switch addr {
	case IOFence:
		f := 0
		if io.ctl != nil {
			f = io.ctl.Fence()
		}
		return isa.MakeFixnum(int32(f)), 1, nil
	case IONodeID:
		return isa.MakeFixnum(int32(io.node)), 1, nil
	case IONodeCount:
		return isa.MakeFixnum(int32(len(io.m.Nodes))), 1, nil
	case IOBTStatus:
		if io.m.Now() < io.btReadyAt {
			return isa.MakeFixnum(1), 1, nil
		}
		return isa.MakeFixnum(0), 1, nil
	}
	return 0, 0, fmt.Errorf("sim: LDIO from unmapped address %#x", addr)
}

func (io *ioCtl) StoreIO(addr uint32, w isa.Word) (int, error) {
	switch addr {
	case IOIPITarget:
		t := int(isa.FixnumValue(w))
		if t < 0 || t >= len(io.m.Nodes) {
			return 0, fmt.Errorf("sim: IPI target %d out of range", t)
		}
		io.ipiTarget = t
		return 1, nil
	case IOIPISend:
		io.m.noteIPI(io.ipiTarget)
		io.m.Nodes[io.ipiTarget].Proc.PostIPI(w)
		return 1, nil
	case IOBTSrc:
		io.btSrc = uint32(w)
		return 1, nil
	case IOBTDst:
		io.btDst = uint32(w)
		return 1, nil
	case IOBTLen:
		io.btLen = uint32(w)
		return 1, nil
	case IOBTGo:
		return io.blockTransfer()
	}
	return 0, fmt.Errorf("sim: STIO to unmapped address %#x", addr)
}

// blockTransfer performs the DMA copy. The data moves immediately in
// the functional memory (the simulator separates function from timing);
// the modeled duration — two cycles per word plus the network round
// trip — is visible through IOBTStatus. The initiating store itself
// costs only the engine setup.
func (io *ioCtl) blockTransfer() (int, error) {
	if io.btSrc%4 != 0 || io.btDst%4 != 0 || io.btLen%4 != 0 {
		return 0, fmt.Errorf("sim: unaligned block transfer src=%#x dst=%#x len=%d", io.btSrc, io.btDst, io.btLen)
	}
	for off := uint32(0); off < io.btLen; off += 4 {
		w, err := io.m.Mem.LoadWord(io.btSrc + off)
		if err != nil {
			return 0, err
		}
		full, _ := io.m.Mem.FE(io.btSrc + off)
		if err := io.m.Mem.StoreWord(io.btDst+off, w); err != nil {
			return 0, err
		}
		io.m.Mem.MustSetFE(io.btDst+off, full) // full/empty bits travel too
	}
	duration := uint64(io.btLen/4)*2 + 20
	io.btReadyAt = io.m.Now() + duration
	return 2, nil
}

var _ proc.IOPort = (*ioCtl)(nil)
