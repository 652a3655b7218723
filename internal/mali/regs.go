package mali

import "fmt"

// Reg is an offset into the GPU's MMIO register window. The layout follows
// the Mali Midgard/Bifrost convention of three register blocks: GPU control
// at 0x0000, job control at 0x1000, and MMU control at 0x2000.
type Reg uint32

// GPU control registers.
const (
	GPU_ID               Reg = 0x0000
	L2_FEATURES          Reg = 0x0004
	TILER_FEATURES       Reg = 0x000C
	MEM_FEATURES         Reg = 0x0010
	MMU_FEATURES         Reg = 0x0014
	AS_PRESENT           Reg = 0x0018
	JS_PRESENT           Reg = 0x001C
	GPU_IRQ_RAWSTAT      Reg = 0x0020
	GPU_IRQ_CLEAR        Reg = 0x0024
	GPU_IRQ_MASK         Reg = 0x0028
	GPU_IRQ_STATUS       Reg = 0x002C
	GPU_COMMAND          Reg = 0x0030
	GPU_STATUS           Reg = 0x0034
	LATEST_FLUSH_ID      Reg = 0x0038
	GPU_FAULTSTATUS      Reg = 0x003C
	GPU_FAULTADDRESS_LO  Reg = 0x0040
	GPU_FAULTADDRESS_HI  Reg = 0x0044
	PWR_KEY              Reg = 0x0050
	PWR_OVERRIDE0        Reg = 0x0054
	PWR_OVERRIDE1        Reg = 0x0058
	THREAD_MAX_THREADS   Reg = 0x00A0
	THREAD_MAX_WORKGROUP Reg = 0x00A4
	THREAD_MAX_BARRIER   Reg = 0x00A8
	THREAD_FEATURES      Reg = 0x00AC
	TEXTURE_FEATURES_0   Reg = 0x00B0
	TEXTURE_FEATURES_1   Reg = 0x00B4
	TEXTURE_FEATURES_2   Reg = 0x00B8
	SHADER_PRESENT_LO    Reg = 0x0100
	SHADER_PRESENT_HI    Reg = 0x0104
	TILER_PRESENT_LO     Reg = 0x0110
	TILER_PRESENT_HI     Reg = 0x0114
	L2_PRESENT_LO        Reg = 0x0120
	L2_PRESENT_HI        Reg = 0x0124
	SHADER_READY_LO      Reg = 0x0140
	SHADER_READY_HI      Reg = 0x0144
	TILER_READY_LO       Reg = 0x0150
	TILER_READY_HI       Reg = 0x0154
	L2_READY_LO          Reg = 0x0160
	L2_READY_HI          Reg = 0x0164
	SHADER_PWRON_LO      Reg = 0x0180
	SHADER_PWRON_HI      Reg = 0x0184
	TILER_PWRON_LO       Reg = 0x0190
	L2_PWRON_LO          Reg = 0x01A0
	SHADER_PWROFF_LO     Reg = 0x01C0
	SHADER_PWROFF_HI     Reg = 0x01C4
	TILER_PWROFF_LO      Reg = 0x01D0
	L2_PWROFF_LO         Reg = 0x01E0
	SHADER_PWRTRANS_LO   Reg = 0x0200
	TILER_PWRTRANS_LO    Reg = 0x0210
	L2_PWRTRANS_LO       Reg = 0x0220
	COHERENCY_FEATURES   Reg = 0x0300
	COHERENCY_ENABLE     Reg = 0x0304
	SHADER_CONFIG        Reg = 0x0F04
	TILER_CONFIG         Reg = 0x0F08
	L2_MMU_CONFIG        Reg = 0x0F0C
)

// GPU_COMMAND values.
const (
	GPUCommandNop             = 0x00
	GPUCommandSoftReset       = 0x01
	GPUCommandHardReset       = 0x02
	GPUCommandPRFCNTClear     = 0x03
	GPUCommandCycleCountStart = 0x04
	GPUCommandCleanCaches     = 0x07
	GPUCommandCleanInvCaches  = 0x08
)

// GPU_IRQ bits.
const (
	GPUIRQFault                = 1 << 0
	GPUIRQResetCompleted       = 1 << 8
	GPUIRQPowerChanged         = 1 << 9
	GPUIRQPowerChangedAll      = 1 << 10
	GPUIRQCleanCachesCompleted = 1 << 17
)

// GPU_STATUS bits.
const (
	GPUStatusActive        = 1 << 0
	GPUStatusProtectedMode = 1 << 7
)

// Job control registers.
const (
	JOB_IRQ_RAWSTAT  Reg = 0x1000
	JOB_IRQ_CLEAR    Reg = 0x1004
	JOB_IRQ_MASK     Reg = 0x1008
	JOB_IRQ_STATUS   Reg = 0x100C
	JOB_IRQ_JS_STATE Reg = 0x1010
	JOB_IRQ_THROTTLE Reg = 0x1014
)

// Per-slot job registers: slot n lives at jobSlotBase + n*jobSlotStride.
const (
	jobSlotBase   Reg = 0x1800
	jobSlotStride Reg = 0x80
)

// Job-slot register offsets within a slot.
const (
	JS_HEAD_LO       Reg = 0x00
	JS_HEAD_HI       Reg = 0x04
	JS_TAIL_LO       Reg = 0x08
	JS_TAIL_HI       Reg = 0x0C
	JS_AFFINITY_LO   Reg = 0x10
	JS_AFFINITY_HI   Reg = 0x14
	JS_CONFIG        Reg = 0x18
	JS_STATUS        Reg = 0x24
	JS_HEAD_NEXT_LO  Reg = 0x40
	JS_HEAD_NEXT_HI  Reg = 0x44
	JS_CONFIG_NEXT   Reg = 0x58
	JS_COMMAND       Reg = 0x20
	JS_COMMAND_NEXT  Reg = 0x60
	JS_FLUSH_ID_NEXT Reg = 0x70
)

// JSReg composes the absolute register offset for a slot-relative register.
func JSReg(slot int, off Reg) Reg {
	return jobSlotBase + Reg(slot)*jobSlotStride + off
}

// JS_COMMAND values.
const (
	JSCommandNop      = 0
	JSCommandStart    = 1
	JSCommandSoftStop = 2
	JSCommandHardStop = 3
)

// JS_STATUS values (subset of the Mali job exception codes).
const (
	JSStatusIdle             = 0x00
	JSStatusActive           = 0x08
	JSStatusDone             = 0x01
	JSStatusJobConfigFault   = 0x40
	JSStatusJobReadFault     = 0x42
	JSStatusTranslationFault = 0xC1
)

// JS_CONFIG bits: the low nibble selects the address space the job's memory
// accesses translate through.
const JSConfigASMask = 0x7

// MMU control registers.
const (
	MMU_IRQ_RAWSTAT Reg = 0x2000
	MMU_IRQ_CLEAR   Reg = 0x2004
	MMU_IRQ_MASK    Reg = 0x2008
	MMU_IRQ_STATUS  Reg = 0x200C
)

// Per-address-space registers: AS n lives at asBase + n*asStride.
const (
	asBase   Reg = 0x2400
	asStride Reg = 0x40
)

// AS register offsets within an address space block.
const (
	AS_TRANSTAB_LO     Reg = 0x00
	AS_TRANSTAB_HI     Reg = 0x04
	AS_MEMATTR_LO      Reg = 0x08
	AS_MEMATTR_HI      Reg = 0x0C
	AS_LOCKADDR_LO     Reg = 0x10
	AS_LOCKADDR_HI     Reg = 0x14
	AS_COMMAND         Reg = 0x18
	AS_FAULTSTATUS     Reg = 0x1C
	AS_FAULTADDRESS_LO Reg = 0x20
	AS_FAULTADDRESS_HI Reg = 0x24
	AS_STATUS          Reg = 0x28
)

// ASReg composes the absolute register offset for an AS-relative register.
func ASReg(as int, off Reg) Reg {
	return asBase + Reg(as)*asStride + off
}

// AS_COMMAND values.
const (
	ASCommandNop      = 0x00
	ASCommandUpdate   = 0x01
	ASCommandLock     = 0x02
	ASCommandUnlock   = 0x03
	ASCommandFlushPT  = 0x04
	ASCommandFlushMem = 0x05
)

// AS_STATUS bits.
const ASStatusActive = 1 << 0

// regNames names the registers RegName does not compose from a block
// offset. It is built once: the DriverShim names every register it reads.
var regNames = map[Reg]string{
	GPU_ID: "GPU_ID", L2_FEATURES: "L2_FEATURES", TILER_FEATURES: "TILER_FEATURES",
	MEM_FEATURES: "MEM_FEATURES", MMU_FEATURES: "MMU_FEATURES", AS_PRESENT: "AS_PRESENT",
	JS_PRESENT: "JS_PRESENT", GPU_IRQ_RAWSTAT: "GPU_IRQ_RAWSTAT", GPU_IRQ_CLEAR: "GPU_IRQ_CLEAR",
	GPU_IRQ_MASK: "GPU_IRQ_MASK", GPU_IRQ_STATUS: "GPU_IRQ_STATUS", GPU_COMMAND: "GPU_COMMAND",
	GPU_STATUS: "GPU_STATUS", LATEST_FLUSH_ID: "LATEST_FLUSH_ID",
	SHADER_PRESENT_LO: "SHADER_PRESENT_LO", SHADER_READY_LO: "SHADER_READY_LO",
	SHADER_PWRON_LO: "SHADER_PWRON_LO", SHADER_PWROFF_LO: "SHADER_PWROFF_LO",
	SHADER_CONFIG: "SHADER_CONFIG", TILER_CONFIG: "TILER_CONFIG", L2_MMU_CONFIG: "L2_MMU_CONFIG",
	JOB_IRQ_RAWSTAT: "JOB_IRQ_RAWSTAT", JOB_IRQ_CLEAR: "JOB_IRQ_CLEAR",
	JOB_IRQ_MASK: "JOB_IRQ_MASK", JOB_IRQ_STATUS: "JOB_IRQ_STATUS",
	MMU_IRQ_RAWSTAT: "MMU_IRQ_RAWSTAT", MMU_IRQ_CLEAR: "MMU_IRQ_CLEAR",
	MMU_IRQ_MASK: "MMU_IRQ_MASK", MMU_IRQ_STATUS: "MMU_IRQ_STATUS",
}

// RegName returns a human-readable name for diagnostics and logs.
func RegName(r Reg) string {
	if n, ok := regNames[r]; ok {
		return n
	}
	if r >= jobSlotBase && r < jobSlotBase+8*jobSlotStride {
		return fmt.Sprintf("JS%d+0x%02x", (r-jobSlotBase)/jobSlotStride, uint32((r-jobSlotBase)%jobSlotStride))
	}
	if r >= asBase && r < asBase+16*asStride {
		return fmt.Sprintf("AS%d+0x%02x", (r-asBase)/asStride, uint32((r-asBase)%asStride))
	}
	return fmt.Sprintf("REG_0x%04x", uint32(r))
}
