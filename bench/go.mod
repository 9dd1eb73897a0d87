module mpmc/bench

go 1.22

require mpmc v0.0.0

replace mpmc => ../
