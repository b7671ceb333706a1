/* Generated by augur-backend native codegen v5 from the tape. Do not edit. */
#include <stdint.h>
#include <math.h>

typedef struct augctx augctx;
typedef struct {
  void     (*step)(augctx*, uint32_t);
  void     (*trap)(augctx*, uint32_t);
  uint64_t (*par_enter)(augctx*);
  void     (*par_iter)(augctx*, uint64_t, int64_t);
  void     (*par_exit)(augctx*);
} augvt;
struct augctx { double** B; double* F; const augvt* vt; uint64_t W; uint64_t* R; };

/* Rust `f64 as i64`: truncating, saturating, NaN -> 0. */
static inline int64_t aug_i64(double x) {
  if (x != x) return 0;
  if (x <= -9223372036854775808.0) return INT64_MIN;
  if (x >= 9223372036854775807.0) return INT64_MAX;
  return (int64_t)x;
}
/* Rust `f64 as u8`, back to f64. */
static inline double aug_u8(double x) {
  if (!(x >= 0.0)) return 0.0;
  if (x > 255.0) return 255.0;
  return (double)(uint64_t)x;
}

/* augur_math::special and augur_dist — exact formula copies. */
static inline double aug_sigmoid(double x) {
  if (x >= 0.0) { double e = exp(-x); return 1.0 / (1.0 + e); }
  else { double e = exp(x); return e / (1.0 + e); }
}
static inline double aug_log1p_exp(double x) {
  return x > 0.0 ? x + log1p(exp(-x)) : log1p(exp(x));
}
static inline double aug_normal_ll(double x, double mu, double var) {
  if (var <= 0.0) return -INFINITY;
  double d = x - mu;
  return -0.5 * (1.8378770664093456 + log(var)) - 0.5 * d * d / var;
}
static inline double aug_bern_ll(double x, double p) {
  if (!(x == 0.0 || x == 1.0)) return -INFINITY;
  if (!(p >= 0.0 && p <= 1.0)) return -INFINITY;
  return x == 1.0 ? log(p) : log1p(-p);
}
static inline double aug_bernlogit_ll(double x, double eta) {
  if (!(x == 0.0 || x == 1.0)) return -INFINITY;
  return x == 1.0 ? -aug_log1p_exp(-eta) : -aug_log1p_exp(eta);
}
static inline double aug_exp_ll(double x, double rate) {
  if (x < 0.0 || rate <= 0.0) return -INFINITY;
  return log(rate) - rate * x;
}
/* `k as usize` is 0 for NaN and saturates above. */
static inline double aug_cat_ll(double k, const double* p, int64_t len) {
  if (k < 0.0) return -INFINITY;
  if (!(k >= 1.0)) k = 0.0;
  if (!(k < (double)len)) return -INFINITY;
  double pk = p[(int64_t)k];
  return pk > 0.0 ? log(pk) : -INFINITY;
}
/* augur_math::Prng::categorical_log over `len` log-weights, the exps
   cached in `e` for the scan; steps the splitmix64 counter `*r` once.
   -1, before drawing, where the interpreter panics. */
static inline int64_t aug_cat_draw(const double* l, int64_t len, double* e, uint64_t* r) {
  double m = -INFINITY;
  for (int64_t q = 0; q < len; q++) if (l[q] > m) m = l[q];
  if (!(m > -INFINITY)) return -1;
  double total = -0.0;
  for (int64_t q = 0; q < len; q++) { e[q] = exp(l[q] - m); total += e[q]; }
  if (!(total > 0.0 && isfinite(total))) return -1;
  uint64_t z = (*r += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  double t = (double)(z >> 11) * (1.0 / 9007199254740992.0) * total;
  for (int64_t q = 0; q < len; q++) { t -= e[q]; if (t < 0.0) return q; }
  return len - 1;
}

static const int64_t off5[11] = {0, 25, 47, 66, 91, 115, 138, 155, 172, 196, 213};
static const int64_t off6[11] = {0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30};
static const int64_t off7[4] = {0, 60, 120, 180};
static const int64_t off8[11] = {0, 25, 47, 66, 91, 115, 138, 155, 172, 196, 213};
static const int64_t off9[11] = {0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30};
static const int64_t off10[4] = {0, 60, 120, 180};

/* proc 0: u0_gibbs */
static void aug_p0(augctx* c) {
  const augvt* vt = c->vt;
  double* F = c->F;
  uint64_t W = 0;
  double* b1 = c->B[1];
  double* b4 = c->B[4];
  double* b8 = c->B[8];
  double* b9 = c->B[9];
  double f0, f1, f2, f3, f4, f5, f6;
  for (int64_t q = 0; q < 30; q++) b9[0 + q] = 0e0;
  f0 = 0e0;
  f1 = b1[0];
  W += 33;
  { int64_t n0 = aug_i64(f1);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      f2 = (double)i0;
      if (!(f2 >= 0.0 && f2 < 10)) { F[2] = f2; vt->trap(c, 5); }
      f3 = b4[(int64_t)f2];
      W += 5;
      { int64_t n1 = aug_i64(f3);
        for (int64_t i1 = aug_i64(f0); i1 < n1; i1++) {
          f4 = (double)i1;
          if (!(f2 >= 0.0 && f4 >= 0.0 && f2 < 10 && f4 < (double)(off8[(int64_t)f2 + 1] - off8[(int64_t)f2]))) { F[2] = f2; F[4] = f4; vt->trap(c, 9); }
          f5 = b8[off8[(int64_t)f2] + (int64_t)f4];
          if (!(f2 >= 0.0 && f2 < 10 && f5 >= 0.0 && f5 < (double)(off9[(int64_t)f2 + 1] - off9[(int64_t)f2]))) { F[2] = f2; F[5] = f5; vt->trap(c, 10); }
          b9[off9[(int64_t)f2] + (int64_t)f5] += 1e0;
          W += 10;
        }
      }
    }
  }
  W += 2;
  { int64_t n0 = aug_i64(f1);
    uint64_t L0 = vt->par_enter(c);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      vt->par_iter(c, L0, i0);
      f6 = (double)i0;
      if (!(f6 >= 0.0 && f6 < 10)) { F[6] = f6; vt->trap(c, 17); }
      F[6] = f6; vt->step(c, 18);
      F[6] = f6; vt->step(c, 19);
      W += 6;
    }
    vt->par_exit(c);
  }
  c->W += W;
  (void)vt; (void)F;
}

/* proc 1: u1_gibbs */
static void aug_p1(augctx* c) {
  const augvt* vt = c->vt;
  double* F = c->F;
  uint64_t W = 0;
  double* b0 = c->B[0];
  double* b1 = c->B[1];
  double* b4 = c->B[4];
  double* b5 = c->B[5];
  double* b8 = c->B[8];
  double* b10 = c->B[10];
  double f0, f1, f2, f3, f4, f5, f6, f7, f8;
  for (int64_t q = 0; q < 180; q++) b10[0 + q] = 0e0;
  f0 = 0e0;
  f1 = b1[0];
  W += 183;
  { int64_t n0 = aug_i64(f1);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      f2 = (double)i0;
      if (!(f2 >= 0.0 && f2 < 10)) { F[2] = f2; vt->trap(c, 5); }
      f3 = b4[(int64_t)f2];
      W += 5;
      { int64_t n1 = aug_i64(f3);
        for (int64_t i1 = aug_i64(f0); i1 < n1; i1++) {
          f4 = (double)i1;
          if (!(f2 >= 0.0 && f4 >= 0.0 && f2 < 10 && f4 < (double)(off8[(int64_t)f2 + 1] - off8[(int64_t)f2]))) { F[2] = f2; F[4] = f4; vt->trap(c, 9); }
          f5 = b8[off8[(int64_t)f2] + (int64_t)f4];
          if (!(f2 >= 0.0 && f4 >= 0.0 && f2 < 10 && f4 < (double)(off5[(int64_t)f2 + 1] - off5[(int64_t)f2]))) { F[2] = f2; F[4] = f4; vt->trap(c, 10); }
          f6 = b5[off5[(int64_t)f2] + (int64_t)f4];
          if (!(f5 >= 0.0 && f5 < 3 && f6 >= 0.0 && f6 < (double)(off10[(int64_t)f5 + 1] - off10[(int64_t)f5]))) { F[5] = f5; F[6] = f6; vt->trap(c, 11); }
          b10[off10[(int64_t)f5] + (int64_t)f6] += 1e0;
          W += 16;
        }
      }
    }
  }
  f7 = b0[0];
  W += 2;
  { int64_t n0 = aug_i64(f7);
    uint64_t L0 = vt->par_enter(c);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      vt->par_iter(c, L0, i0);
      f8 = (double)i0;
      if (!(f8 >= 0.0 && f8 < 3)) { F[8] = f8; vt->trap(c, 19); }
      F[8] = f8; vt->step(c, 20);
      F[8] = f8; vt->step(c, 21);
      W += 6;
    }
    vt->par_exit(c);
  }
  c->W += W;
  (void)vt; (void)F;
}

/* proc 2: u2_gibbs */
static void aug_p2(augctx* c) {
  const augvt* vt = c->vt;
  double* F = c->F;
  uint64_t W = 0;
  uint64_t* R = c->R;
  double* b1 = c->B[1];
  double* b4 = c->B[4];
  double* b5 = c->B[5];
  double* b6 = c->B[6];
  double* b7 = c->B[7];
  double* b8 = c->B[8];
  double* b11 = c->B[11];
  double f0, f1, f2, f3, f4, f5, f6, f7, f8;
  int64_t vs0, vl0, vs1, vl1;
  double sc0[3];
  f0 = 0e0;
  f1 = b1[0];
  W += 2;
  { int64_t n0 = aug_i64(f1);
    uint64_t L0 = vt->par_enter(c);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      vt->par_iter(c, L0, i0);
      f2 = (double)i0;
      if (!(f2 >= 0.0 && f2 < 10)) { F[2] = f2; vt->trap(c, 4); }
      f3 = b4[(int64_t)f2];
      W += 5;
      { int64_t n1 = aug_i64(f3);
        if (aug_i64(f0) < n1) {
          if (!(f2 >= 0.0 && f2 < 10)) { F[2] = f2; vt->trap(c, 7); }
          vs0 = off6[(int64_t)f2];
          vl0 = off6[(int64_t)f2 + 1] - vs0;
          f4 = (double)(vl0);
          for (int64_t q = aug_i64(f0); q < aug_i64(f4); q++) sc0[q] = aug_cat_ll((double)q, b6 + vs0, vl0);
        }
        for (int64_t i1 = aug_i64(f0); i1 < n1; i1++) {
          W += 2;
          { int64_t n2 = aug_i64(f4);
            if (aug_i64(f0) < n2) {
              f6 = (double)i1;
              if (!(f2 >= 0.0 && f6 >= 0.0 && f2 < 10 && f6 < (double)(off5[(int64_t)f2 + 1] - off5[(int64_t)f2]))) { F[2] = f2; F[6] = f6; vt->trap(c, 13); }
              f7 = b5[off5[(int64_t)f2] + (int64_t)f6];
            }
            for (int64_t i2 = aug_i64(f0); i2 < n2; i2++) {
              f5 = (double)i2;
              if (!(f5 >= 0.0 && f5 < 3)) { F[5] = f5; F[7] = f7; vt->trap(c, 15); }
              vs1 = off7[(int64_t)f5];
              vl1 = off7[(int64_t)f5 + 1] - vs1;
              b11[(int64_t)f5] = 0e0;
              b11[(int64_t)f5] += sc0[(int64_t)f5];
              b11[(int64_t)f5] += aug_cat_ll(f7, b7 + vs1, vl1);
              W += 33;
            }
          }
          f8 = (double)i1;
          { double e[3];
            int64_t k = aug_cat_draw(b11 + 0, 3, e, R);
            if (!(k >= 0)) { F[2] = f2; F[8] = f8; vt->trap(c, 19); }
            if (!(f2 >= 0.0 && f2 < 10 && f8 >= 0.0 && f8 < (double)(off8[(int64_t)f2 + 1] - off8[(int64_t)f2]))) { F[2] = f2; F[8] = f8; vt->trap(c, 19); }
            b8[off8[(int64_t)f2] + (int64_t)f8] = (double)k;
          }
          W += 14;
        }
      }
    }
    vt->par_exit(c);
  }
  c->W += W;
  (void)vt; (void)F;
}

/* proc 3: init_params */
static void aug_p3(augctx* c) {
  const augvt* vt = c->vt;
  double* F = c->F;
  uint64_t W = 0;
  double* b0 = c->B[0];
  double* b1 = c->B[1];
  double* b4 = c->B[4];
  double f0, f1, f2, f3, f4, f5, f6, f7;
  f0 = 0e0;
  f1 = b1[0];
  W += 2;
  { int64_t n0 = aug_i64(f1);
    uint64_t L0 = vt->par_enter(c);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      vt->par_iter(c, L0, i0);
      f2 = (double)i0;
      F[2] = f2; vt->step(c, 5);
      W += 2;
    }
    vt->par_exit(c);
  }
  f3 = b0[0];
  W += 2;
  { int64_t n0 = aug_i64(f3);
    uint64_t L0 = vt->par_enter(c);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      vt->par_iter(c, L0, i0);
      f4 = (double)i0;
      F[4] = f4; vt->step(c, 12);
      W += 2;
    }
    vt->par_exit(c);
  }
  W += 2;
  { int64_t n0 = aug_i64(f1);
    uint64_t L0 = vt->par_enter(c);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      vt->par_iter(c, L0, i0);
      f5 = (double)i0;
      if (!(f5 >= 0.0 && f5 < 10)) { F[5] = f5; vt->trap(c, 17); }
      f6 = b4[(int64_t)f5];
      W += 5;
      { int64_t n1 = aug_i64(f6);
        if (aug_i64(f0) < n1) {
          if (!(f5 >= 0.0 && f5 < 10)) { F[5] = f5; vt->trap(c, 20); }
        }
        for (int64_t i1 = aug_i64(f0); i1 < n1; i1++) {
          f7 = (double)i1;
          F[5] = f5; F[7] = f7; vt->step(c, 22);
          W += 6;
        }
      }
    }
    vt->par_exit(c);
  }
  c->W += W;
  (void)vt; (void)F;
}

/* proc 4: model_ll */
static void aug_p4(augctx* c) {
  const augvt* vt = c->vt;
  double* F = c->F;
  uint64_t W = 0;
  double* b0 = c->B[0];
  double* b1 = c->B[1];
  double* b4 = c->B[4];
  double* b5 = c->B[5];
  double* b6 = c->B[6];
  double* b7 = c->B[7];
  double* b8 = c->B[8];
  double* b12 = c->B[12];
  double f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13;
  int64_t vs4, vl4, vs5, vl5;
  b12[0] = 0e0;
  f0 = 0e0;
  f1 = b1[0];
  W += 4;
  { int64_t n0 = aug_i64(f1);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      f2 = (double)i0;
      if (!(f2 >= 0.0 && f2 < 10)) { F[2] = f2; vt->trap(c, 6); }
      F[2] = f2; vt->step(c, 7);
      W += 5;
    }
  }
  f3 = b0[0];
  W += 2;
  { int64_t n0 = aug_i64(f3);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      f4 = (double)i0;
      if (!(f4 >= 0.0 && f4 < 3)) { F[4] = f4; vt->trap(c, 14); }
      F[4] = f4; vt->step(c, 15);
      W += 5;
    }
  }
  W += 2;
  { int64_t n0 = aug_i64(f1);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      f5 = (double)i0;
      if (!(f5 >= 0.0 && f5 < 10)) { F[5] = f5; vt->trap(c, 20); }
      f6 = b4[(int64_t)f5];
      W += 5;
      { int64_t n1 = aug_i64(f6);
        if (aug_i64(f0) < n1) {
          if (!(f5 >= 0.0 && f5 < 10)) { F[5] = f5; vt->trap(c, 23); }
          vs4 = off6[(int64_t)f5];
          vl4 = off6[(int64_t)f5 + 1] - vs4;
        }
        for (int64_t i1 = aug_i64(f0); i1 < n1; i1++) {
          f7 = (double)i1;
          if (!(f5 >= 0.0 && f7 >= 0.0 && f5 < 10 && f7 < (double)(off8[(int64_t)f5 + 1] - off8[(int64_t)f5]))) { F[5] = f5; F[7] = f7; vt->trap(c, 25); }
          f8 = b8[off8[(int64_t)f5] + (int64_t)f7];
          b12[0] += aug_cat_ll(f8, b6 + vs4, vl4);
          W += 17;
        }
      }
    }
  }
  W += 2;
  { int64_t n0 = aug_i64(f1);
    for (int64_t i0 = aug_i64(f0); i0 < n0; i0++) {
      f9 = (double)i0;
      if (!(f9 >= 0.0 && f9 < 10)) { F[9] = f9; vt->trap(c, 32); }
      f10 = b4[(int64_t)f9];
      W += 5;
      { int64_t n1 = aug_i64(f10);
        for (int64_t i1 = aug_i64(f0); i1 < n1; i1++) {
          f11 = (double)i1;
          if (!(f9 >= 0.0 && f11 >= 0.0 && f9 < 10 && f11 < (double)(off8[(int64_t)f9 + 1] - off8[(int64_t)f9]))) { F[9] = f9; F[11] = f11; vt->trap(c, 36); }
          f12 = b8[off8[(int64_t)f9] + (int64_t)f11];
          if (!(f12 >= 0.0 && f12 < 3)) { F[12] = f12; vt->trap(c, 37); }
          vs5 = off7[(int64_t)f12];
          vl5 = off7[(int64_t)f12 + 1] - vs5;
          if (!(f9 >= 0.0 && f11 >= 0.0 && f9 < 10 && f11 < (double)(off5[(int64_t)f9 + 1] - off5[(int64_t)f9]))) { F[9] = f9; F[11] = f11; vt->trap(c, 38); }
          f13 = b5[off5[(int64_t)f9] + (int64_t)f11];
          b12[0] += aug_cat_ll(f13, b7 + vs5, vl5);
          W += 23;
        }
      }
    }
  }
  c->W += W;
  (void)vt; (void)F;
}

void (*const aug_procs[5])(augctx*) = {
  aug_p0,
  aug_p1,
  aug_p2,
  aug_p3,
  aug_p4,
};
