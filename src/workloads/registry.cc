/**
 * @file
 * The 122 Table I rows, each bound to a kernel instantiation.
 *
 * Parameter choices implement the substitution argument of DESIGN.md:
 * every benchmark's kernel and sizing are picked so its position along
 * the 47-characteristic axes mirrors the real program's dominant loops
 * (mix, ILP, working set, strides, branch behavior). Inputs of the same
 * program share the kernel family and differ in sizes/seeds, like real
 * input sets do. paperICountM records the dynamic instruction count
 * (millions) the paper reports, for the Table I reproduction.
 */

#include "workloads/registry.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "workloads/kernel_lib.hh"

namespace mica::workloads
{

namespace k = kernels;
using V = k::ImageFilterParams::Variant;

BenchmarkRegistry::BenchmarkRegistry()
{
    auto add = [this](std::string suite, std::string program,
                      std::string input, uint64_t icountM,
                      std::function<isa::Program()> build) {
        BenchmarkEntry e;
        e.info = {std::move(suite), std::move(program), std::move(input),
                  icountM};
        e.build = std::move(build);
        entries_.push_back(std::move(e));
    };

    // ------------------------------------------------------------------
    // BioInfoMark (12): alignment, index scans, HMMs, phylogenetics.
    // ------------------------------------------------------------------
    add("BioInfoMark", "blast", "protein", 81092, [] {
        // Defining trait: a multi-MB index working set probed randomly.
        return k::kmerScan({.dbBytes = 20000, .tableBytes = 1 << 22,
                            .queryBytes = 64, .extendThresholdBits = 5,
                            .iters = 1, .seed = 101});
    });
    add("BioInfoMark", "ce", "ce", 4816, [] {
        return k::dpMatrix({.queryLen = 96, .dbLen = 128, .alphabet = 20,
                            .iters = 1, .seed = 102});
    });
    add("BioInfoMark", "clustalw", "clustalw", 884859, [] {
        return k::dpMatrix({.queryLen = 128, .dbLen = 160, .alphabet = 20,
                            .iters = 1, .seed = 103});
    });
    add("BioInfoMark", "fasta", "fasta34", 759654, [] {
        return k::dpMatrix({.queryLen = 64, .dbLen = 288, .alphabet = 4,
                            .iters = 1, .seed = 104, .matchScore = 5,
                            .mismatchPenalty = -4, .gapPenalty = -7});
    });
    add("BioInfoMark", "glimmer", "004663", 26610, [] {
        // Interpolated Markov scan: small index, no extension phase.
        return k::kmerScan({.dbBytes = 16000, .tableBytes = 1 << 16,
                            .queryBytes = 16, .extendThresholdBits = 12,
                            .iters = 1, .seed = 105});
    });
    add("BioInfoMark", "hmmer", "build", 321, [] {
        return k::hmmViterbi({.states = 48, .seqLen = 160, .alphabet = 20,
                              .iters = 1, .seed = 106,
                              .trainingPass = true});
    });
    add("BioInfoMark", "hmmer", "calibrate", 43048, [] {
        return k::hmmViterbi({.states = 64, .seqLen = 192, .alphabet = 20,
                              .iters = 1, .seed = 107});
    });
    add("BioInfoMark", "hmmer", "search (artemia)", 47, [] {
        return k::hmmViterbi({.states = 48, .seqLen = 128, .alphabet = 20,
                              .iters = 1, .seed = 108});
    });
    add("BioInfoMark", "hmmer", "search (sprot)", 1785862, [] {
        return k::hmmViterbi({.states = 80, .seqLen = 224, .alphabet = 20,
                              .iters = 1, .seed = 109});
    });
    add("BioInfoMark", "phylip", "dnapenny", 184557, [] {
        return k::phyloKernel({.taxa = 24, .sites = 320, .iters = 1,
                               .seed = 110, .parsimony = true});
    });
    add("BioInfoMark", "phylip", "promlk", 557514, [] {
        return k::phyloKernel({.taxa = 20, .sites = 160, .iters = 1,
                               .seed = 111, .parsimony = false});
    });
    add("BioInfoMark", "predator", "predator", 804859, [] {
        // Repeat finding: large-band DP over a long genomic stretch.
        return k::dpMatrix({.queryLen = 48, .dbLen = 448, .alphabet = 4,
                            .iters = 1, .seed = 112, .matchScore = 3,
                            .mismatchPenalty = -2, .gapPenalty = -5});
    });

    // ------------------------------------------------------------------
    // BioMetricsWorkload (8): dense FP linear algebra + GMM scoring.
    // ------------------------------------------------------------------
    add("BioMetricsWorkload", "csu", "Bayesian (project)", 403313, [] {
        return k::matVec({.rows = 192, .cols = 384, .iters = 2,
                          .seed = 201, .unroll = 4});
    });
    add("BioMetricsWorkload", "csu", "Bayesian (train)", 28158, [] {
        return k::covarianceUpdate({.dim = 72, .samples = 24, .iters = 1,
                                    .seed = 202});
    });
    add("BioMetricsWorkload", "csu", "PreprocessNormalize", 4059, [] {
        return k::imageNormalize({.pixels = 1 << 13, .iters = 2,
                                  .seed = 203});
    });
    add("BioMetricsWorkload", "csu", "SubspaceProject (LDA)", 6054, [] {
        return k::matVec({.rows = 160, .cols = 320, .iters = 2,
                          .seed = 204, .unroll = 4});
    });
    add("BioMetricsWorkload", "csu", "SubspaceProject (PCA)", 6098, [] {
        return k::matVec({.rows = 176, .cols = 352, .iters = 2,
                          .seed = 205, .unroll = 4});
    });
    add("BioMetricsWorkload", "csu", "SubspaceTrain (LDA)", 51297, [] {
        return k::denseMatMul({.n = 36, .iters = 1, .seed = 206});
    });
    add("BioMetricsWorkload", "csu", "SubspaceTrain (PCA)", 41729, [] {
        return k::denseMatMul({.n = 34, .iters = 1, .seed = 207});
    });
    add("BioMetricsWorkload", "speak", "decode", 46648, [] {
        return k::gmmDecode({.frames = 48, .mixtures = 16, .dim = 24,
                             .iters = 1, .seed = 208});
    });

    // ------------------------------------------------------------------
    // CommBench (12): header-processing and payload-codec kernels.
    // ------------------------------------------------------------------
    add("CommBench", "cast", "decode", 130, [] {
        return k::blockCipher({.bufBytes = 3 << 10, .rounds = 16,
                               .iters = 3, .seed = 301, .decrypt = true});
    });
    add("CommBench", "cast", "encode", 130, [] {
        return k::blockCipher({.bufBytes = 3 << 10, .rounds = 16,
                               .iters = 3, .seed = 302});
    });
    add("CommBench", "drr", "drr", 235, [] {
        return k::queueScheduler({.numQueues = 16, .pktsPerQueue = 24,
                                  .quantum = 512, .iters = 400,
                                  .seed = 303});
    });
    add("CommBench", "frag", "frag", 49, [] {
        return k::packetFrag({.pktBytes = 8192, .mtu = 576, .iters = 24,
                              .seed = 304});
    });
    add("CommBench", "jpeg", "decode", 238, [] {
        return k::dct8x8({.blocks = 56, .iters = 2, .seed = 305,
                          .inverse = true});
    });
    add("CommBench", "jpeg", "encode", 339, [] {
        return k::dct8x8({.blocks = 64, .iters = 2, .seed = 306});
    });
    add("CommBench", "reed", "decode", 1298, [] {
        return k::gfReedSolomon({.dataBytes = 1 << 11, .parityBytes = 16,
                                 .iters = 1, .seed = 307,
                                 .decode = true});
    });
    add("CommBench", "reed", "encode", 912, [] {
        return k::gfReedSolomon({.dataBytes = 1 << 11, .parityBytes = 16,
                                 .iters = 1, .seed = 308});
    });
    add("CommBench", "rtr", "rtr", 1137, [] {
        return k::trieLookup({.numKeys = 1024, .trieNodes = 8192,
                              .maxDepth = 24, .iters = 3, .seed = 309});
    });
    add("CommBench", "tcp", "tcp", 58, [] {
        return k::checksum({.pktBytes = 1500, .numPkts = 40, .iters = 2,
                            .seed = 310});
    });
    add("CommBench", "zip", "decode", 50, [] {
        return k::lz77({.bufBytes = 24 << 10, .windowBytes = 1 << 12,
                        .alphabet = 32, .iters = 1, .seed = 311,
                        .decode = true});
    });
    add("CommBench", "zip", "encode", 322, [] {
        return k::lz77({.bufBytes = 7 << 10, .windowBytes = 1 << 12,
                        .alphabet = 32, .iters = 1, .seed = 312});
    });

    // ------------------------------------------------------------------
    // MediaBench (12): DSP loops, codecs, rendering, interpreters.
    // ------------------------------------------------------------------
    add("MediaBench", "epic", "test1", 205, [] {
        return k::waveletTransform({.n = 1 << 12, .levels = 7, .iters = 4,
                                    .seed = 401});
    });
    add("MediaBench", "epic", "test2", 2296, [] {
        return k::waveletTransform({.n = 1 << 13, .levels = 8, .iters = 2,
                                    .seed = 402});
    });
    add("MediaBench", "unepic", "test1", 35, [] {
        return k::waveletTransform({.n = 1 << 12, .levels = 7, .iters = 4,
                                    .seed = 403, .inverse = true});
    });
    add("MediaBench", "unepic", "test2", 876, [] {
        return k::waveletTransform({.n = 1 << 13, .levels = 8, .iters = 2,
                                    .seed = 404, .inverse = true});
    });
    add("MediaBench", "g721", "decode", 323, [] {
        return k::adpcmCodec({.samples = 5000, .iters = 1, .seed = 405,
                              .decode = true, .g721 = true});
    });
    add("MediaBench", "g721", "encode", 343, [] {
        return k::adpcmCodec({.samples = 5000, .iters = 1, .seed = 406,
                              .g721 = true});
    });
    add("MediaBench", "ghostscript", "gs", 868, [] {
        return k::interpDispatch({.codeLen = 3200, .numOps = 48,
                                  .handlerBody = 8, .hotOpFraction = 0.15,
                                  .iters = 3, .seed = 407});
    });
    add("MediaBench", "mesa", "mipmap", 32, [] {
        return k::texMap({.texBytes = 1 << 14, .pixels = 5000, .iters = 2,
                          .seed = 408});
    });
    add("MediaBench", "mesa", "osdemo", 10, [] {
        return k::texMap({.texBytes = 1 << 15, .pixels = 4000, .iters = 2,
                          .seed = 409});
    });
    add("MediaBench", "mesa", "texgen", 86, [] {
        return k::texMap({.texBytes = 1 << 16, .pixels = 6000, .iters = 2,
                          .seed = 410});
    });
    add("MediaBench", "mpeg2", "decode", 149, [] {
        return k::motionComp({.frameW = 160, .frameH = 96,
                              .searchRange = 4, .iters = 6, .seed = 411,
                              .encode = false});
    });
    add("MediaBench", "mpeg2", "encode", 1528, [] {
        return k::motionComp({.frameW = 160, .frameH = 96,
                              .searchRange = 3, .iters = 1, .seed = 412,
                              .encode = true});
    });

    // ------------------------------------------------------------------
    // MiBench (29): small embedded kernels.
    // ------------------------------------------------------------------
    add("MiBench", "CRC32", "large", 612, [] {
        return k::crc32({.bufBytes = 24 << 10, .iters = 1, .seed = 501});
    });
    add("MiBench", "FFT", "fft (large)", 237, [] {
        return k::fftButterfly({.n = 1 << 11, .iters = 2, .seed = 502});
    });
    add("MiBench", "FFT", "fftinv (large)", 217, [] {
        return k::fftButterfly({.n = 1 << 11, .iters = 2, .seed = 503,
                                .inverse = true});
    });
    add("MiBench", "adpcm", "rawcaudio", 758, [] {
        return k::adpcmCodec({.samples = 7000, .iters = 1, .seed = 504});
    });
    add("MiBench", "adpcm", "rawdaudio", 639, [] {
        return k::adpcmCodec({.samples = 7000, .iters = 1, .seed = 505,
                              .decode = true});
    });
    add("MiBench", "basicmath", "large", 1523, [] {
        return k::basicMath({.problems = 800, .iters = 1, .seed = 506});
    });
    add("MiBench", "bitcount", "large", 681, [] {
        return k::bitOps({.words = 2600, .iters = 1, .seed = 507});
    });
    add("MiBench", "blowfish", "decode", 495, [] {
        return k::blockCipher({.bufBytes = 4 << 10, .rounds = 16,
                               .iters = 2, .seed = 508, .decrypt = true});
    });
    add("MiBench", "blowfish", "encode", 498, [] {
        return k::blockCipher({.bufBytes = 4 << 10, .rounds = 16,
                               .iters = 2, .seed = 509});
    });
    add("MiBench", "dijkstra", "large", 252, [] {
        return k::graphSssp({.nodes = 160, .degree = 8, .iters = 1,
                             .seed = 510});
    });
    add("MiBench", "ghostscript", "large", 868, [] {
        return k::interpDispatch({.codeLen = 3200, .numOps = 48,
                                  .handlerBody = 8, .hotOpFraction = 0.15,
                                  .iters = 3, .seed = 511});
    });
    add("MiBench", "ispell", "large", 1027, [] {
        return k::hashDict({.numWords = 2048, .numQueries = 1600,
                            .tableSlots = 4096, .iters = 1, .seed = 512});
    });
    add("MiBench", "jpeg", "cjpeg", 121, [] {
        return k::dct8x8({.blocks = 48, .iters = 2, .seed = 513});
    });
    add("MiBench", "jpeg", "djpeg", 24, [] {
        return k::dct8x8({.blocks = 40, .iters = 2, .seed = 514,
                          .inverse = true});
    });
    add("MiBench", "lame", "large", 1199, [] {
        return k::audioSynth({.samples = 5 << 10, .stages = 4, .iters = 1,
                              .seed = 515, .withTables = true});
    });
    add("MiBench", "mad", "large", 345, [] {
        return k::audioSynth({.samples = 4 << 10, .stages = 3, .iters = 1,
                              .seed = 516});
    });
    add("MiBench", "patricia", "large", 399, [] {
        return k::trieLookup({.numKeys = 768, .trieNodes = 4096,
                              .maxDepth = 20, .iters = 3, .seed = 517});
    });
    add("MiBench", "pgp", "decode", 111, [] {
        return k::bigIntArith({.words = 28, .iters = 18, .seed = 518});
    });
    add("MiBench", "pgp", "encode", 48, [] {
        return k::bigIntArith({.words = 24, .iters = 14, .seed = 519});
    });
    add("MiBench", "qsort", "large", 512, [] {
        return k::quickSort({.elems = 2048, .iters = 1, .seed = 520});
    });
    add("MiBench", "rsynth", "say (large)", 775, [] {
        return k::audioSynth({.samples = 3 << 10, .stages = 6, .iters = 1,
                              .seed = 521});
    });
    add("MiBench", "sha", "large", 114, [] {
        return k::shaHash({.bufBytes = 5 << 10, .iters = 1, .seed = 522});
    });
    add("MiBench", "susan", "corners (large)", 29, [] {
        return k::imageFilter2D({.width = 96, .height = 64,
                                 .variant = V::Threshold, .iters = 1,
                                 .seed = 523});
    });
    add("MiBench", "susan", "edges (large)", 73, [] {
        return k::imageFilter2D({.width = 112, .height = 72,
                                 .variant = V::Threshold, .iters = 1,
                                 .seed = 524});
    });
    add("MiBench", "susan", "smoothing (large)", 300, [] {
        return k::imageFilter2D({.width = 128, .height = 80,
                                 .variant = V::Smooth, .iters = 1,
                                 .seed = 525});
    });
    add("MiBench", "tiff", "2bw", 143, [] {
        return k::imageFilter2D({.width = 192, .height = 128,
                                 .variant = V::Gray, .iters = 2,
                                 .seed = 526});
    });
    add("MiBench", "tiff", "2rgba", 268, [] {
        return k::imageFilter2D({.width = 224, .height = 144,
                                 .variant = V::Rgba, .iters = 3,
                                 .seed = 527});
    });
    add("MiBench", "tiff", "dither", 1228, [] {
        return k::imageFilter2D({.width = 224, .height = 144,
                                 .variant = V::Dither, .iters = 3,
                                 .seed = 528});
    });
    add("MiBench", "tiff", "median", 763, [] {
        return k::imageFilter2D({.width = 160, .height = 96,
                                 .variant = V::Median, .iters = 1,
                                 .seed = 529});
    });
    add("MiBench", "typeset", "lout", 609, [] {
        return k::interpDispatch({.codeLen = 2600, .numOps = 32,
                                  .handlerBody = 7, .hotOpFraction = 0.3,
                                  .iters = 3, .seed = 530});
    });

    // ------------------------------------------------------------------
    // SPEC CPU2000 (49).
    // ------------------------------------------------------------------
    add("SPEC2000", "ammp", "ref", 388534, [] {
        return k::stencilSweep({.nx = 64, .ny = 64, .points = 5,
                                .passes = 2, .iters = 1, .seed = 601,
                                .sparse = true});
    });
    add("SPEC2000", "applu", "ref", 336798, [] {
        return k::stencilSweep({.nx = 96, .ny = 96, .points = 5,
                                .passes = 2, .iters = 1, .seed = 602});
    });
    add("SPEC2000", "apsi", "ref", 361955, [] {
        return k::stencilSweep({.nx = 80, .ny = 80, .points = 9,
                                .passes = 2, .iters = 1, .seed = 603});
    });
    add("SPEC2000", "art", "ref-110", 77067, [] {
        return k::neuralScan({.inputs = 1 << 12, .neurons = 12,
                              .iters = 1, .seed = 604});
    });
    add("SPEC2000", "art", "ref-470", 84660, [] {
        return k::neuralScan({.inputs = 1 << 12, .neurons = 13,
                              .iters = 1, .seed = 605});
    });
    add("SPEC2000", "bzip2", "graphic", 157003, [] {
        return k::bwtSort({.blockBytes = 1400, .alphabet = 200,
                           .iters = 1, .seed = 606});
    });
    add("SPEC2000", "bzip2", "program", 136389, [] {
        return k::bwtSort({.blockBytes = 1300, .alphabet = 96, .iters = 1,
                           .seed = 607});
    });
    add("SPEC2000", "bzip2", "source", 122267, [] {
        return k::bwtSort({.blockBytes = 1200, .alphabet = 64, .iters = 1,
                           .seed = 608});
    });
    add("SPEC2000", "crafty", "ref", 194311, [] {
        return k::bitOps({.words = 2000, .iters = 1, .seed = 609,
                          .chess = true});
    });
    add("SPEC2000", "eon", "cook", 100552, [] {
        return k::rayTrace({.spheres = 24, .rays = 300, .iters = 1,
                            .seed = 610});
    });
    add("SPEC2000", "eon", "kajiya", 131268, [] {
        return k::rayTrace({.spheres = 28, .rays = 330, .iters = 1,
                            .seed = 611});
    });
    add("SPEC2000", "eon", "rush", 73139, [] {
        return k::rayTrace({.spheres = 20, .rays = 280, .iters = 1,
                            .seed = 612});
    });
    add("SPEC2000", "equake", "ref", 158071, [] {
        return k::stencilSweep({.nx = 72, .ny = 72, .points = 5,
                                .passes = 2, .iters = 1, .seed = 613,
                                .sparse = true});
    });
    add("SPEC2000", "facerec", "ref", 249735, [] {
        return k::matVec({.rows = 160, .cols = 288, .iters = 2,
                          .seed = 614, .unroll = 4});
    });
    add("SPEC2000", "fma3d", "ref", 312960, [] {
        return k::stencilSweep({.nx = 68, .ny = 68, .points = 5,
                                .passes = 2, .iters = 1, .seed = 615,
                                .sparse = true});
    });
    add("SPEC2000", "galgel", "ref", 326916, [] {
        return k::denseMatMul({.n = 38, .iters = 1, .seed = 616});
    });
    add("SPEC2000", "gap", "ref", 310323, [] {
        return k::bigIntArith({.words = 36, .iters = 14, .seed = 617});
    });
    add("SPEC2000", "gcc", "166", 46614, [] {
        return k::interpDispatch({.codeLen = 3600, .numOps = 64,
                                  .handlerBody = 10, .hotOpFraction = 0.0,
                                  .iters = 2, .seed = 618});
    });
    add("SPEC2000", "gcc", "200", 106339, [] {
        return k::interpDispatch({.codeLen = 4000, .numOps = 64,
                                  .handlerBody = 10,
                                  .hotOpFraction = 0.05, .iters = 2,
                                  .seed = 619});
    });
    add("SPEC2000", "gcc", "expr", 11847, [] {
        return k::interpDispatch({.codeLen = 3000, .numOps = 64,
                                  .handlerBody = 10, .hotOpFraction = 0.1,
                                  .iters = 2, .seed = 620});
    });
    add("SPEC2000", "gcc", "integrate", 13019, [] {
        return k::interpDispatch({.codeLen = 3200, .numOps = 64,
                                  .handlerBody = 10, .hotOpFraction = 0.0,
                                  .iters = 2, .seed = 621});
    });
    add("SPEC2000", "gcc", "scilab", 60784, [] {
        return k::interpDispatch({.codeLen = 3800, .numOps = 64,
                                  .handlerBody = 10,
                                  .hotOpFraction = 0.08, .iters = 2,
                                  .seed = 622});
    });
    add("SPEC2000", "gzip", "graphic", 113400, [] {
        return k::lz77({.bufBytes = 9 << 10, .windowBytes = 1 << 12,
                        .alphabet = 200, .iters = 1, .seed = 623});
    });
    add("SPEC2000", "gzip", "log", 42506, [] {
        return k::lz77({.bufBytes = 10 << 10, .windowBytes = 1 << 12,
                        .alphabet = 24, .iters = 1, .seed = 624});
    });
    add("SPEC2000", "gzip", "program", 161726, [] {
        return k::lz77({.bufBytes = 9 << 10, .windowBytes = 1 << 12,
                        .alphabet = 96, .iters = 1, .seed = 625});
    });
    add("SPEC2000", "gzip", "random", 91961, [] {
        // Incompressible input: hash probes almost never match.
        return k::lz77({.bufBytes = 8 << 10, .windowBytes = 1 << 12,
                        .alphabet = 0, .iters = 1, .seed = 626});
    });
    add("SPEC2000", "gzip", "source", 84366, [] {
        return k::lz77({.bufBytes = 9 << 10, .windowBytes = 1 << 12,
                        .alphabet = 48, .iters = 1, .seed = 627});
    });
    add("SPEC2000", "lucas", "ref", 134753, [] {
        return k::fftButterfly({.n = 1 << 12, .iters = 1, .seed = 628});
    });
    add("SPEC2000", "mcf", "ref", 59800, [] {
        // Defining trait: serial pointer chase over a multi-MB arena.
        return k::pointerChase({.nodes = 1 << 15, .iters = 1, .seed = 629,
                                .steps = 26000});
    });
    add("SPEC2000", "mesa", "ref", 314449, [] {
        return k::texMap({.texBytes = 1 << 16, .pixels = 9000, .iters = 2,
                          .seed = 630});
    });
    add("SPEC2000", "mgrid", "ref", 440934, [] {
        return k::stencilSweep({.nx = 88, .ny = 88, .points = 9,
                                .passes = 2, .iters = 1, .seed = 631});
    });
    add("SPEC2000", "parser", "ref", 530784, [] {
        return k::hashDict({.numWords = 4096, .numQueries = 1800,
                            .tableSlots = 8192, .iters = 1, .seed = 632});
    });
    for (const auto &[input, icount] :
         std::vector<std::pair<const char *, uint64_t>>{
             {"splitmail.535", 69857}, {"splitmail.704", 73966},
             {"splitmail.850", 142509}, {"splitmail.957", 122893},
             {"diffmail", 43327}, {"makerand", 2055},
             {"perfect", 29791}}) {
        const uint64_t seedBase = 633 + (icount % 7);
        add("SPEC2000", "perlbmk", input, icount, [seedBase, icount] {
            return k::interpDispatch(
                {.codeLen = 2800 + (icount % 5) * 320, .numOps = 96,
                 .handlerBody = 8,
                 .hotOpFraction = 0.2 + 0.02 * double(icount % 4),
                 .iters = 3, .seed = seedBase});
        });
    }
    add("SPEC2000", "sixtrack", "ref", 452446, [] {
        return k::denseMatMul({.n = 32, .iters = 1, .seed = 640});
    });
    add("SPEC2000", "swim", "ref", 221868, [] {
        return k::stencilSweep({.nx = 112, .ny = 112, .points = 5,
                                .passes = 1, .iters = 1, .seed = 641});
    });
    add("SPEC2000", "twolf", "ref", 397222, [] {
        return k::annealPlace({.cells = 4096, .moves = 6000, .iters = 1,
                               .seed = 642});
    });
    add("SPEC2000", "vortex", "ref1", 129793, [] {
        return k::objDb({.objects = 4096, .opsPerObject = 3,
                         .traversals = 6000, .iters = 1, .seed = 643});
    });
    add("SPEC2000", "vortex", "ref2", 151475, [] {
        return k::objDb({.objects = 5120, .opsPerObject = 3,
                         .traversals = 6600, .iters = 1, .seed = 644});
    });
    add("SPEC2000", "vortex", "ref3", 145113, [] {
        return k::objDb({.objects = 4608, .opsPerObject = 2,
                         .traversals = 6300, .iters = 1, .seed = 645});
    });
    add("SPEC2000", "vpr", "place", 117001, [] {
        return k::annealPlace({.cells = 3072, .moves = 5200, .iters = 1,
                               .seed = 646});
    });
    add("SPEC2000", "vpr", "route", 82351, [] {
        return k::graphSssp({.nodes = 150, .degree = 6, .iters = 1,
                             .seed = 647});
    });
    add("SPEC2000", "wupwise", "ref", 337770, [] {
        return k::denseMatMul({.n = 33, .iters = 1, .seed = 648});
    });
}

const BenchmarkRegistry &
BenchmarkRegistry::instance()
{
    static BenchmarkRegistry registry;
    return registry;
}

std::vector<const BenchmarkEntry *>
BenchmarkRegistry::bySuite(const std::string &suite) const
{
    std::vector<const BenchmarkEntry *> out;
    for (const auto &e : entries_) {
        if (e.info.suite == suite)
            out.push_back(&e);
    }
    return out;
}

const BenchmarkEntry *
BenchmarkRegistry::find(const std::string &fullName) const
{
    for (const auto &e : entries_) {
        if (e.info.isNamed(fullName))
            return &e;
    }
    return nullptr;
}

size_t
BenchmarkRegistry::indexOf(const std::string &fullName) const
{
    for (size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].info.isNamed(fullName))
            return i;
    }
    return static_cast<size_t>(-1);
}

std::vector<std::string>
BenchmarkRegistry::suites() const
{
    std::vector<std::string> out;
    for (const auto &e : entries_) {
        bool seen = false;
        for (const auto &s : out)
            seen = seen || s == e.info.suite;
        if (!seen)
            out.push_back(e.info.suite);
    }
    return out;
}

namespace
{

/** The suite of trace stems without "__". */
constexpr char kStemOnlySuite[] = "traces";

/** Invert the "suite__program.input" filename-stem encoding. */
BenchmarkInfo
traceInfoFromStem(const std::string &stem)
{
    BenchmarkInfo info;
    std::string rest = stem;
    const size_t sep = stem.find("__");
    if (sep != std::string::npos) {
        info.suite = stem.substr(0, sep);
        rest = stem.substr(sep + 2);
    } else {
        info.suite = kStemOnlySuite;
    }
    // Split at the first '.': inputs may themselves contain dots
    // ("perlbmk.splitmail.535"), registry programs never do. A stem
    // with nothing after its first dot ("zcustom", "zcustom.") has no
    // input and is all program, so fullName() maps back to this stem.
    const size_t dot = rest.find('.');
    if (dot == std::string::npos || dot + 1 == rest.size()) {
        info.program = rest;
    } else {
        info.program = rest.substr(0, dot);
        info.input = rest.substr(dot + 1);
    }
    return info;
}

/** @return whether @p p names a trace file (binary or text). */
bool
isTraceFile(const std::filesystem::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".trace" || ext == ".csv" || ext == ".txt";
}

/**
 * Reject a trace shorter than a nonzero budget: its replay would
 * silently come up short of interpreting the program directly.
 */
void
checkTraceBudget(const std::string &path, uint64_t records,
                 uint64_t maxInsts)
{
    if (maxInsts == 0 || maxInsts <= records)
        return;
    throw TraceFileError(path,
                         "holds " + std::to_string(records) +
                             " records but the profiling budget is " +
                             std::to_string(maxInsts) +
                             " — replay would silently diverge from "
                             "direct interpretation (lower --budget, "
                             "use 0, or re-record)");
}

/** Two files mapping to one benchmark name: neither may win. */
TraceFileError
duplicateTrace(const std::string &path, const std::string &name,
               const std::string &other)
{
    return TraceFileError(path, "duplicate trace benchmark '" + name +
                                    "' (" + other +
                                    " maps to the same name)");
}

} // namespace

std::string
traceStem(const std::string &fullName)
{
    std::string stem = fullName;
    const size_t slash = stem.find('/');
    if (slash != std::string::npos)
        stem.replace(slash, 1, "__");
    return stem;
}

std::vector<std::string>
traceTreeFiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> out;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
        // A profile store kept inside the tree (--cache=DIR/sub) exports
        // CSVs next to its profiles.bin that are not traces.
        std::error_code ec;
        if (it->is_directory() &&
            fs::exists(it->path() / "profiles.bin", ec))
            it.disable_recursion_pending();
        else if (it->is_regular_file() && isTraceFile(it->path()))
            out.push_back(it->path().lexically_relative(dir).string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
findTraceFile(const std::string &dir, const std::string &fullName)
{
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        return "";
    // The sweep's own name mapping: a name finds the file the sweep
    // would replay for it, and a duplicate rejects as it does there.
    std::string found;
    for (const auto &rel : traceTreeFiles(dir)) {
        const std::string stem =
            std::filesystem::path(rel).stem().string();
        if (traceInfoFromStem(stem).fullName() != fullName)
            continue;
        const std::string path = dir + "/" + rel;
        if (!found.empty())
            throw duplicateTrace(path, fullName, found);
        found = path;
    }
    return found;
}

std::vector<BenchmarkEntry>
traceBenchmarks(const std::string &dir, uint64_t maxInsts,
                std::vector<std::pair<std::string, std::string>>
                    *quarantined)
{
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        throw TraceFileError(dir, "not a trace directory");
    std::vector<std::string> files;
    for (const auto &rel : traceTreeFiles(dir))
        files.push_back(dir + "/" + rel);
    return traceBenchmarksFromFiles(files, maxInsts, quarantined);
}

std::vector<BenchmarkEntry>
traceBenchmarksFromFiles(const std::vector<std::string> &files,
                         uint64_t maxInsts,
                         std::vector<std::pair<std::string, std::string>>
                             *quarantined)
{
    namespace fs = std::filesystem;

    std::vector<BenchmarkEntry> out;
    std::vector<std::string> paths;
    for (const auto &file : files) {
        const fs::path p(file);
        if (!isTraceFile(p))
            continue;
        const bool binary = p.extension() == ".trace";

        BenchmarkEntry e;
        e.info = traceInfoFromStem(p.stem().string());
        try {
            if (binary) {
                // The header only: each job's FileTraceSource checks
                // the payload as it decodes it.
                const TraceFileInfo fi = FileTraceSource(p.string()).info();
                e.info.paperICountM = fi.recordCount / 1000000;
                checkTraceBudget(p.string(), fi.recordCount, maxInsts);
                e.contentId =
                    fnv1a(&fi.recordCount, sizeof(fi.recordCount),
                          fnv1a(&fi.payloadHash,
                                sizeof(fi.payloadHash)));
                // The store keys this entry on the scanned header, so
                // a file re-recorded since must not be profiled.
                e.source = [path = p.string(),
                            fi]() -> std::unique_ptr<TraceSource> {
                    auto src = std::make_unique<FileTraceSource>(path);
                    const TraceFileInfo &now = src->info();
                    if (now.version != fi.version ||
                        now.recordCount != fi.recordCount ||
                        now.payloadBytes != fi.payloadBytes ||
                        now.payloadHash != fi.payloadHash)
                        throw TraceFileError(path, "file changed since it "
                                                   "was scanned");
                    return src;
                };
            } else {
                // The bytes only, for the content id: a text trace has
                // no header, so its job parses them and applies the
                // budget guard, and a store hit never parses them.
                const std::string bytes = readTextTraceBytes(p.string());
                e.contentId = fnv1a(bytes.data(), bytes.size());
                e.source = [path = p.string(), id = e.contentId,
                            maxInsts]() -> std::unique_ptr<TraceSource> {
                    const std::string now = readTextTraceBytes(path);
                    if (fnv1a(now.data(), now.size()) != id)
                        throw TraceFileError(path, "file changed since it "
                                                   "was scanned");
                    std::istringstream text(now);
                    std::vector<InstRecord> recs =
                        parseTextTrace(text, path);
                    checkTraceBudget(path, recs.size(), maxInsts);
                    return std::make_unique<VectorTraceSource>(
                        std::move(recs));
                };
            }
        } catch (const TraceFileError &ex) {
            // Scan-time quarantine: one bad file must not take down
            // the whole sweep when the caller opted into isolation.
            if (!quarantined)
                throw;
            quarantined->emplace_back(p.string(), ex.what());
            continue;
        }
        paths.push_back(p.string());
        out.push_back(std::move(e));
    }

    // Precompute each entry's Table I position and name once: the
    // comparator runs O(M log M) times and indexOf is a linear
    // registry scan.
    const auto &reg = BenchmarkRegistry::instance();
    std::vector<size_t> regIdx(out.size());
    std::vector<std::string> names(out.size());
    for (size_t i = 0; i < out.size(); ++i) {
        names[i] = out[i].info.fullName();
        regIdx[i] = reg.indexOf(names[i]);
    }
    std::vector<size_t> order(out.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (regIdx[a] != regIdx[b])
            return regIdx[a] < regIdx[b];
        return names[a] < names[b];
    });

    std::vector<BenchmarkEntry> sorted;
    sorted.reserve(out.size());
    for (size_t k = 0; k < order.size(); ++k) {
        const size_t idx = order[k];
        // Two files mapping to one benchmark name would profile
        // whichever happened to win — reject instead of guessing.
        if (k > 0 && names[order[k - 1]] == names[idx])
            throw duplicateTrace(paths[idx], names[idx],
                                 paths[order[k - 1]]);
        sorted.push_back(std::move(out[idx]));
    }
    return sorted;
}

} // namespace mica::workloads
