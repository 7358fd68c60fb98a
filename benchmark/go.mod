module l25gc/benchmark

go 1.22

require l25gc v0.0.0

replace l25gc => ../
