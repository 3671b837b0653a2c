module groupranking/bench

go 1.22

require groupranking v0.0.0

replace groupranking => ../
