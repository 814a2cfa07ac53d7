package gpu

import "sync/atomic"

// atomicAddU32 adds delta to *p atomically and returns the previous value.
func atomicAddU32(p *uint32, delta uint32) uint32 {
	return atomic.AddUint32(p, delta) - delta
}

// atomicExchU32 stores v in *p atomically and returns the previous value.
func atomicExchU32(p *uint32, v uint32) uint32 {
	return atomic.SwapUint32(p, v)
}
