package gsnp

import (
	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/sortnet"
)

// denseChunk bounds the number of sites whose dense matrices are resident
// at once (2048 x 128 KB = 256 MB).
const denseChunk = 2048

// DenseGPULikelihood runs the "GPU dense" configuration of Figure 5: the
// dense base_occ representation moved to the device, one thread per site
// scanning all 131,072 matrix elements in canonical order. Matrices are
// stored site-interleaved (element e of site s at e*chunk+s) so that the
// 32 lanes of a warp reading element e of 32 consecutive sites coalesce —
// the best possible dense layout. Even so, the scan touches every element
// of a 128 KB matrix per site while the sparse representation touches only
// the ~0.08% non-zeros, which is why the paper measures dense-on-GPU at
// 14-17x slower than GSNP.
//
// words supplies the per-site observations (sorted or not; the dense scan
// re-establishes canonical order by construction). The function returns
// the genotype log-likelihoods per site, identical to the sparse kernels'.
// The per-thread dep_count array is a Go array in the kernel body,
// unmetered like registers — not LaunchConfig.LocalU32 memory, which the
// sparse kernel uses and which meters as global traffic.
func DenseGPULikelihood(d *gpu.Device, tables *bayes.Tables, readLen int, words *sortnet.Batches, gNewP *gpu.Buffer[float64], cAdj *gpu.ConstBuffer[uint8]) []float64 {
	n := words.NumArrays()
	out := make([]float64, n*dna.NGenotypes)
	baseOcc := gpu.Alloc[uint8](d, denseChunk*bayes.BaseOccSize)
	defer baseOcc.Free()
	gTL := gpu.Alloc[float64](d, denseChunk*dna.NGenotypes)
	defer gTL.Free()

	for chunk := 0; chunk < n; chunk += denseChunk {
		cn := denseChunk
		if chunk+cn > n {
			cn = n - chunk
		}
		// Counting into the dense matrices (host side; the measured
		// component here is the likelihood scan, as in Figure 5).
		// Site-interleaved layout: element e of site s at e*cn + s.
		host := baseOcc.Host()
		clear(host[:cn*bayes.BaseOccSize])
		for s := 0; s < cn; s++ {
			for _, word := range words.Array(chunk + s) {
				o := UnpackWord(word)
				e := bayes.BaseOccIndex(o.Base, o.Qual, int(o.Coord), int(o.Strand))
				idx := e*cn + s
				if host[idx] < 255 {
					host[idx]++
				}
			}
		}

		cc := cn
		d.MustLaunch(gpu.LaunchConfig{
			Name: "likelihood_dense", Grid: (cc + 31) / 32, Block: 32,
		}, func(t *gpu.Thread) {
			site := t.GlobalID()
			if site >= cc {
				return
			}
			var tl [dna.NGenotypes]float64
			var dep [2 * bayes.MaxReadLen]uint16
			for base := dna.Base(0); base < dna.NBases; base++ {
				for i := range dep[:2*readLen] {
					dep[i] = 0
				}
				t.Exec(1)
				for score := int(bayes.NQ) - 1; score >= 0; score-- {
					row := bayes.BaseOccIndex(base, dna.Quality(score), 0, 0)
					for coord := 0; coord < readLen; coord++ {
						for strand := 0; strand < 2; strand++ {
							occ := gpu.Ld(t, baseOcc, (row+coord<<1+strand)*cc+site)
							if occ == 0 {
								continue
							}
							for k := uint8(0); k < occ; k++ {
								slot := strand*readLen + coord
								dep[slot]++
								dcap := int(dep[slot]) - 1
								if dcap >= int(bayes.NQ) {
									dcap = bayes.NQ - 1
								}
								pen := int(gpu.CLd(t, cAdj, dcap))
								qadj := score - pen
								if qadj < 0 {
									qadj = 0
								}
								t.Exec(4)
								idx := bayes.NewPMatrixIndex(dna.Quality(qadj), coord, base, 0)
								for r := 0; r < dna.NGenotypes; r++ {
									tl[r] += gpu.Ld(t, gNewP, idx+r)
									t.Exec(1)
								}
							}
						}
					}
				}
			}
			for r := 0; r < dna.NGenotypes; r++ {
				gpu.St(t, gTL, site*dna.NGenotypes+r, tl[r])
			}
		})
		gTL.CopyOut(out[chunk*dna.NGenotypes : (chunk+cn)*dna.NGenotypes])
	}
	return out
}
