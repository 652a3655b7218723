package mali

import "gpurelay/internal/gpumem"

// SKU describes one GPU hardware model. The paper's Figure 3 motivates GR-T
// with the diversity of mobile GPU SKUs (~80 on current phones); the fields
// below are the axes along which SKUs differ in ways that break cross-SKU
// replay (§2.4): shader core count (drives JIT tiling), page-table format,
// register quirks, and shared-memory/status layout details.
type SKU struct {
	Name string
	// ProductID is the GPU_ID register value: product in the high half,
	// revision in the low half.
	ProductID uint32
	// Cores is the shader core count (the "MPn" suffix).
	Cores int
	// GFLOPS is the effective sustained f32 throughput used by the job
	// duration model.
	GFLOPS float64
	// PTFormat is the page-table entry layout the GPU's MMU walks.
	PTFormat gpumem.Format
	// SnoopQuirk requires the MMU_CONFIG snoop-disparity workaround, one
	// of the hardware-quirk probes in Listing 1(a) of the paper.
	SnoopQuirk bool
	// ThreadMaxThreads and friends are hardware-discovery register values
	// the driver probes at init.
	ThreadMaxThreads     uint32
	ThreadMaxWorkgroup   uint32
	ThreadMaxBarrierSize uint32
	ThreadFeatures       uint32
	L2Features           uint32
	TilerFeatures        uint32
	MemFeatures          uint32
	MMUFeatures          uint32
	AddressSpaces        int
	JobSlots             int
}

// CoreMask returns the SHADER_PRESENT bitmask for the SKU.
func (s *SKU) CoreMask() uint32 {
	return uint32(1)<<uint(s.Cores) - 1
}

func (s *SKU) String() string { return s.Name }

// The SKU catalog. G71MP8 is the client GPU of the paper's evaluation
// platform (Hikey960); the others exist to exercise the multi-SKU recording
// problem and the cloud's devicetree-driven driver selection.
var (
	G71MP8 = &SKU{
		Name: "Mali-G71 MP8", ProductID: 0x6000_0001, Cores: 8, GFLOPS: 25,
		PTFormat: gpumem.FormatLPAE, SnoopQuirk: true,
		ThreadMaxThreads: 2048, ThreadMaxWorkgroup: 1024, ThreadMaxBarrierSize: 512,
		ThreadFeatures: 0x0A04_0400, L2Features: 0x0709_0706, TilerFeatures: 0x0809,
		MemFeatures: 0x1, MMUFeatures: 0x2830, AddressSpaces: 8, JobSlots: 3,
	}
	G72MP12 = &SKU{
		Name: "Mali-G72 MP12", ProductID: 0x6001_0000, Cores: 12, GFLOPS: 41,
		PTFormat: gpumem.FormatLPAE, SnoopQuirk: false,
		ThreadMaxThreads: 2048, ThreadMaxWorkgroup: 1024, ThreadMaxBarrierSize: 512,
		ThreadFeatures: 0x0A04_0400, L2Features: 0x0709_0806, TilerFeatures: 0x0809,
		MemFeatures: 0x1, MMUFeatures: 0x2830, AddressSpaces: 8, JobSlots: 3,
	}
	G52MP2 = &SKU{
		Name: "Mali-G52 MP2", ProductID: 0x7002_0000, Cores: 2, GFLOPS: 10,
		PTFormat: gpumem.FormatAArch64, SnoopQuirk: false,
		ThreadMaxThreads: 768, ThreadMaxWorkgroup: 384, ThreadMaxBarrierSize: 384,
		ThreadFeatures: 0x0A04_0402, L2Features: 0x0709_0706, TilerFeatures: 0x0805,
		MemFeatures: 0x1, MMUFeatures: 0x2830, AddressSpaces: 4, JobSlots: 3,
	}
	G76MP10 = &SKU{
		Name: "Mali-G76 MP10", ProductID: 0x7201_0000, Cores: 10, GFLOPS: 60,
		PTFormat: gpumem.FormatAArch64, SnoopQuirk: false,
		ThreadMaxThreads: 2048, ThreadMaxWorkgroup: 1024, ThreadMaxBarrierSize: 768,
		ThreadFeatures: 0x0A04_0400, L2Features: 0x0709_0A06, TilerFeatures: 0x0809,
		MemFeatures: 0x1, MMUFeatures: 0x2830, AddressSpaces: 8, JobSlots: 3,
	}
)

// Additional family members, completing the roster a single Bifrost driver
// release supports (the paper notes 6 SKUs per Mali driver, §3.1).
var (
	G31MP2 = &SKU{
		Name: "Mali-G31 MP2", ProductID: 0x7003_0000, Cores: 2, GFLOPS: 7,
		PTFormat: gpumem.FormatAArch64, SnoopQuirk: false,
		ThreadMaxThreads: 512, ThreadMaxWorkgroup: 256, ThreadMaxBarrierSize: 256,
		ThreadFeatures: 0x0A04_0402, L2Features: 0x0709_0705, TilerFeatures: 0x0805,
		MemFeatures: 0x1, MMUFeatures: 0x2830, AddressSpaces: 4, JobSlots: 3,
	}
	G51MP4 = &SKU{
		Name: "Mali-G51 MP4", ProductID: 0x7000_0000, Cores: 4, GFLOPS: 14,
		PTFormat: gpumem.FormatLPAE, SnoopQuirk: true,
		ThreadMaxThreads: 1024, ThreadMaxWorkgroup: 512, ThreadMaxBarrierSize: 384,
		ThreadFeatures: 0x0A04_0401, L2Features: 0x0709_0706, TilerFeatures: 0x0807,
		MemFeatures: 0x1, MMUFeatures: 0x2830, AddressSpaces: 8, JobSlots: 3,
	}
	G77MP11 = &SKU{
		Name: "Mali-G77 MP11", ProductID: 0x9000_0000, Cores: 11, GFLOPS: 90,
		PTFormat: gpumem.FormatAArch64, SnoopQuirk: false,
		ThreadMaxThreads: 4096, ThreadMaxWorkgroup: 1024, ThreadMaxBarrierSize: 1024,
		ThreadFeatures: 0x0A04_0400, L2Features: 0x0709_0B06, TilerFeatures: 0x0809,
		MemFeatures: 0x1, MMUFeatures: 0x2830, AddressSpaces: 8, JobSlots: 3,
	}
)

// Catalog lists all known SKUs, keyed by devicetree compatible string.
var Catalog = map[string]*SKU{
	"arm,mali-g71-mp8":  G71MP8,
	"arm,mali-g72-mp12": G72MP12,
	"arm,mali-g52-mp2":  G52MP2,
	"arm,mali-g76-mp10": G76MP10,
	"arm,mali-g31-mp2":  G31MP2,
	"arm,mali-g51-mp4":  G51MP4,
	"arm,mali-g77-mp11": G77MP11,
}
