module usersignals/bench

go 1.22

require usersignals v0.0.0

replace usersignals => ../
