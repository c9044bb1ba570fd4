//===- support/Sanitizers.h - Sanitizer build detection --------------------===//
///
/// \file
/// Detects address-sanitized builds (GCC's __SANITIZE_ADDRESS__ or
/// Clang's __has_feature) and unoptimized builds (no __OPTIMIZE__) so
/// that recursion-depth guards can be calibrated for their inflated
/// stack frames. A depth that leaves comfortable headroom in a release
/// build can overflow an 8 MiB stack under ASan, whose redzones grow
/// frames by an order of magnitude, or at -O0, where every local gets
/// its own slot -- the guard must fire *before* the signal, under every
/// build mode.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SUPPORT_SANITIZERS_H
#define HMA_SUPPORT_SANITIZERS_H

#if defined(__SANITIZE_ADDRESS__)
#define HMA_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HMA_ASAN_BUILD 1
#endif
#endif

#ifndef HMA_ASAN_BUILD
#define HMA_ASAN_BUILD 0
#endif

#if defined(__OPTIMIZE__)
#define HMA_UNOPTIMIZED_BUILD 0
#else
#define HMA_UNOPTIMIZED_BUILD 1
#endif

namespace hma {

/// Scale a recursion-depth budget for the current build mode: ASan
/// frames are roughly an order of magnitude larger than release frames.
/// -O0 frames are larger too: a g++ 12 Debug build overflows an 8 MiB
/// stack between 12000 and 16000 parser levels, short of the parser's
/// 20000-level release budget, so a quarter of the budget leaves over 2x
/// headroom. The two factors compound. Optimized builds keep the release
/// depth.
constexpr unsigned scaledStackDepth(unsigned ReleaseDepth) {
  return ReleaseDepth / (HMA_ASAN_BUILD ? 16 : 1) /
         (HMA_UNOPTIMIZED_BUILD ? 4 : 1);
}

} // namespace hma

#endif // HMA_SUPPORT_SANITIZERS_H
