module sapla/bench

go 1.22

require sapla v0.0.0

replace sapla => ../
