module minuet/bench

go 1.22

require minuet v0.0.0

replace minuet => ../
