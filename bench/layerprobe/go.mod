module gsnp/bench/layerprobe

go 1.22

require gsnp v0.0.0

replace gsnp => ../..
