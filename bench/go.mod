module gsnp/bench

go 1.22
