% a Datalog program: reachability over probabilistic edges, grounded over
% the constants a, b and c; the query q(X) is not ground
0.5::e(a,b).
0.5::e(b,c).
0.3::e(a,c).
p(X,Y) :- e(X,Y).
p(X,Z) :- e(X,Y), p(Y,Z).
q(X) :- p(a,X), \+ e(X,c).
