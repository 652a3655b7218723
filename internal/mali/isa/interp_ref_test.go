package isa

// This file keeps the original per-output convolution loops as the
// reference the production kernel (convTile in interp.go) is checked
// against (TestConvMatchesReference, FuzzConvMatchesReference). The loops
// are the pre-optimization execConv and execDWConv bodies, lifted onto
// slices: one serial accumulator per output, bounds derived for every tap.
// The one change is the explicit float32 conversion of each product, which
// forbids fusing the multiply-add on hosts that have one (arm64), so the
// reference rounds the same on every host; amd64 never fused it, so there
// the bits are the original's.

func refOutDim(in, k, stride, pad uint32) uint32 {
	return (in+2*pad-k)/stride + 1
}

// refConv computes the output channels [oc0, oc0+tileC) of a convolution;
// weights starts at filter oc0.
func refConv(input, weights []float32, inC, inH, inW, k, stride, pad, tileC uint32) []float32 {
	outH, outW := refOutDim(inH, k, stride, pad), refOutDim(inW, k, stride, pad)
	out := make([]float32, tileC*outH*outW)
	for oc := uint32(0); oc < tileC; oc++ {
		for oy := uint32(0); oy < outH; oy++ {
			for ox := uint32(0); ox < outW; ox++ {
				var sum float32
				for ic := uint32(0); ic < inC; ic++ {
					for ky := uint32(0); ky < k; ky++ {
						iy := int(oy*stride+ky) - int(pad)
						if iy < 0 || iy >= int(inH) {
							continue
						}
						for kx := uint32(0); kx < k; kx++ {
							ix := int(ox*stride+kx) - int(pad)
							if ix < 0 || ix >= int(inW) {
								continue
							}
							sum += float32(input[(ic*inH+uint32(iy))*inW+uint32(ix)] *
								weights[((oc*inC+ic)*k+ky)*k+kx])
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return out
}

// refDWConv computes the channels [c0, c0+tileC) of a depthwise
// convolution; input and weights start at channel c0.
func refDWConv(input, weights []float32, inH, inW, k, stride, pad, tileC uint32) []float32 {
	outH, outW := refOutDim(inH, k, stride, pad), refOutDim(inW, k, stride, pad)
	out := make([]float32, tileC*outH*outW)
	for ch := uint32(0); ch < tileC; ch++ {
		for oy := uint32(0); oy < outH; oy++ {
			for ox := uint32(0); ox < outW; ox++ {
				var sum float32
				for ky := uint32(0); ky < k; ky++ {
					iy := int(oy*stride+ky) - int(pad)
					if iy < 0 || iy >= int(inH) {
						continue
					}
					for kx := uint32(0); kx < k; kx++ {
						ix := int(ox*stride+kx) - int(pad)
						if ix < 0 || ix >= int(inW) {
							continue
						}
						sum += float32(input[(ch*inH+uint32(iy))*inW+uint32(ix)] * weights[(ch*k+ky)*k+kx])
					}
				}
				out[(ch*outH+oy)*outW+ox] = sum
			}
		}
	}
	return out
}
