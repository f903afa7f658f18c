//===- tests/tools_test.cpp - dcb command-line driver ----------------------===//
//
// Drives the installed `dcb` binary through the artifact's procExes.sh
// steps (§A.E) as subprocesses, checking exit codes and key outputs.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>

#ifndef DCB_BINARY_DIR
#define DCB_BINARY_DIR "."
#endif

namespace {

std::string toolPath() { return std::string(DCB_BINARY_DIR) + "/tools/dcb"; }
std::string workDir() {
  return std::string(DCB_BINARY_DIR) + "/tools_test_work";
}

int runCmd(const std::string &Cmd) { return std::system(Cmd.c_str()); }

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST(DcbTool, FullProcExesWorkflow) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);

  // 1. prepare benchmarks.
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_50 -o " + Work +
                   "/suite.cubin > /dev/null"),
            0);

  // 2. extract kernel functions.
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/suite.cubin > " + Work +
                   "/suite.sass"),
            0);
  std::string Listing = slurp(Work + "/suite.sass");
  EXPECT_NE(Listing.find("code for sm_50"), std::string::npos);
  EXPECT_NE(Listing.find("Function : matrixMul"), std::string::npos);

  // 3. analyze.
  ASSERT_EQ(runCmd(Dcb + " analyze " + Work + "/suite.sass -o " + Work +
                   "/pass1.db > /dev/null"),
            0);
  EXPECT_NE(slurp(Work + "/pass1.db").find("dcb-encodings"),
            std::string::npos);

  // 4-7. bit flipping.
  ASSERT_EQ(runCmd(Dcb + " flip " + Work + "/suite.cubin --db " + Work +
                   "/pass1.db -o " + Work + "/final.db > /dev/null"),
            0);
  // Flipping adds modifier/unary knowledge (it may *shrink* the file
  // overall, since it also narrows component windows).
  auto countLines = [](const std::string &Text, const std::string &Tag) {
    size_t Count = 0;
    for (size_t Pos = Text.find(Tag); Pos != std::string::npos;
         Pos = Text.find(Tag, Pos + 1))
      ++Count;
    return Count;
  };
  std::string Pass1 = slurp(Work + "/pass1.db");
  std::string Final = slurp(Work + "/final.db");
  EXPECT_GT(countLines(Final, "\nunary "), countLines(Pass1, "\nunary "));
  EXPECT_GT(countLines(Final, "\nmod "), countLines(Pass1, "\nmod "));

  // 8. generate the assembler.
  ASSERT_EQ(runCmd(Dcb + " genasm --db " + Work + "/final.db -o " + Work +
                   "/asm2bin.cpp > /dev/null"),
            0);
  EXPECT_NE(slurp(Work + "/asm2bin.cpp").find("int main()"),
            std::string::npos);

  // 9-10. verify byte-identical reassembly (exit code 0 = all identical).
  ASSERT_EQ(runCmd(Dcb + " verify --db " + Work + "/final.db " + Work +
                   "/suite.sass > " + Work + "/verify.txt"),
            0);
  EXPECT_NE(slurp(Work + "/verify.txt").find("byte-identical"),
            std::string::npos);
}

TEST(DcbTool, IrDumpAndInstrument) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work +
                   "/k.cubin > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/k.cubin > " + Work +
                   "/k.sass"),
            0);
  ASSERT_EQ(runCmd(Dcb + " analyze " + Work + "/k.sass -o " + Work +
                   "/k1.db > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " flip " + Work + "/k.cubin --db " + Work +
                   "/k1.db -o " + Work + "/k.db > /dev/null"),
            0);

  ASSERT_EQ(runCmd(Dcb + " ir " + Work + "/k.cubin bfs > " + Work +
                   "/bfs.ir"),
            0);
  std::string Ir = slurp(Work + "/bfs.ir");
  EXPECT_NE(Ir.find("BB0:"), std::string::npos);
  EXPECT_NE(Ir.find("succs:"), std::string::npos);
  // A listing loads like the cubin it came from.
  ASSERT_EQ(runCmd(Dcb + " ir " + Work + "/k.sass bfs > " + Work +
                   "/bfs.sass.ir"),
            0);
  EXPECT_EQ(slurp(Work + "/bfs.sass.ir"), Ir);

  ASSERT_EQ(runCmd(Dcb + " instrument " + Work + "/k.cubin --db " + Work +
                   "/k.db --clear-regs 9,10 -o " + Work +
                   "/k.instr.cubin > /dev/null"),
            0);
  // The instrumented cubin still disassembles and shows the clears.
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/k.instr.cubin > " + Work +
                   "/k.instr.sass"),
            0);
  std::string NewListing = slurp(Work + "/k.instr.sass");
  EXPECT_NE(NewListing.find("MOV R9, RZ;"), std::string::npos);
  EXPECT_NE(NewListing.find("MOV R10, RZ;"), std::string::npos);
}

TEST(DcbTool, InstrumentRejectsRegistersTheTargetCannotName) {
  // Fermi register fields are 6 bits wide (R63 encodes RZ), later ones
  // 8 bits (R255 encodes RZ): a larger number would clear nothing or
  // spill into the neighbouring field, so the register list refuses it.
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  for (const auto &[Arch, Last] :
       {std::pair<std::string, unsigned>{"sm_20", 62},
        std::pair<std::string, unsigned>{"sm_35", 254}}) {
    const std::string Base = Work + "/regs_" + Arch;
    ASSERT_EQ(runCmd(Dcb + " make-suite " + Arch + " -o " + Base +
                     ".cubin > /dev/null"),
              0);
    ASSERT_EQ(runCmd(Dcb + " disasm " + Base + ".cubin > " + Base + ".sass"),
              0);
    ASSERT_EQ(runCmd(Dcb + " analyze " + Base + ".sass -o " + Base +
                     "1.db > /dev/null"),
              0);
    ASSERT_EQ(runCmd(Dcb + " flip " + Base + ".cubin --db " + Base +
                     "1.db -o " + Base + ".db > /dev/null"),
              0);
    const std::string Instrument = Dcb + " instrument " + Base +
                                   ".cubin --db " + Base + ".db -o " + Base +
                                   ".instr.cubin --clear-regs ";

    ASSERT_EQ(runCmd(Instrument + std::to_string(Last) + " > /dev/null"), 0)
        << Arch;
    ASSERT_EQ(runCmd(Dcb + " disasm " + Base + ".instr.cubin > " + Base +
                     ".instr.sass"),
              0);
    EXPECT_NE(slurp(Base + ".instr.sass")
                  .find("MOV R" + std::to_string(Last) + ", RZ;"),
              std::string::npos)
        << Arch;

    for (const std::string &Bad :
         {std::to_string(Last + 1), std::to_string(Last + 2),
          std::string("9,4294967305")}) {
      int Status = runCmd(Instrument + Bad + " > " + Base + ".err 2>&1");
      ASSERT_TRUE(WIFEXITED(Status)) << Arch << " " << Bad;
      EXPECT_EQ(WEXITSTATUS(Status), 1) << Arch << " " << Bad;
      EXPECT_EQ(slurp(Base + ".err"), "dcb: bad register list\n")
          << Arch << " " << Bad;
    }
  }
}

TEST(DcbTool, LintAndAnalyzeModes) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_52 -o " + Work +
                   "/lint.cubin > /dev/null"),
            0);

  // A clean vendor binary lints with exit code 0.
  ASSERT_EQ(runCmd(Dcb + " lint " + Work + "/lint.cubin > " + Work +
                   "/lint.txt"),
            0);
  EXPECT_NE(slurp(Work + "/lint.txt").find("0 error(s), 0 warning(s)"),
            std::string::npos);

  // JSON report: schema marker present, saved to a file via --json=FILE.
  ASSERT_EQ(runCmd(Dcb + " lint " + Work + "/lint.cubin --json=" + Work +
                   "/lint.json > /dev/null"),
            0);
  std::string Json = slurp(Work + "/lint.json");
  EXPECT_NE(Json.find("dcb-lint-v1"), std::string::npos);
  EXPECT_NE(Json.find("\"errors\": 0"), std::string::npos);

  // The ground-truth ISA tables audit clean for every generation.
  ASSERT_EQ(runCmd(Dcb + " lint --isa all > /dev/null"), 0);

  // Analysis modes over the same binary.
  ASSERT_EQ(runCmd(Dcb + " analyze --liveness " + Work +
                   "/lint.cubin > " + Work + "/live.txt"),
            0);
  EXPECT_NE(slurp(Work + "/live.txt").find("live regs"), std::string::npos);
  ASSERT_EQ(runCmd(Dcb + " analyze --liveness --json " + Work +
                   "/lint.cubin > " + Work + "/live.json"),
            0);
  EXPECT_NE(slurp(Work + "/live.json").find("dcb-analysis-v1"),
            std::string::npos);
  ASSERT_EQ(runCmd(Dcb + " analyze --hazards " + Work +
                   "/lint.cubin > /dev/null"),
            0);
}

TEST(DcbTool, AnalyzeCheckersEmitCompleteJsonWhenClean) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);

  // A minimal race-free, in-bounds kernel: every thread touches its own
  // 4-byte shared slot.
  const std::string Listing = Work + "/clean.sass";
  {
    std::ofstream Out(Listing, std::ios::binary);
    Out << "code for sm_52\n"
        << "\t\tFunction : clean\n"
        << "\t/*0008*/ S2R R0, SR_TID.X; /* 0x0 */\n"
        << "\t/*0010*/ SHL R1, R0, 0x2; /* 0x0 */\n"
        << "\t/*0018*/ STS [R1], R0; /* 0x0 */\n"
        << "\t/*0028*/ LDS R3, [R1]; /* 0x0 */\n"
        << "\t/*0030*/ EXIT; /* 0x0 */\n";
  }

  // A clean program yields a *complete* dcb-analysis-v1 document with an
  // empty findings array — never blank stdout.
  for (const char *Mode : {"types", "bounds", "races"}) {
    ASSERT_EQ(runCmd(Dcb + " analyze --" + Mode + " " + Listing +
                     " --json > " + Work + "/a.json"),
              0)
        << Mode;
    std::string Doc = slurp(Work + "/a.json");
    EXPECT_NE(Doc.find("\"dcb-analysis-v1\""), std::string::npos) << Mode;
    EXPECT_NE(Doc.find("\"findings\": [\n],"), std::string::npos) << Mode;
  }

  // The bounds document byte-for-byte: the stable empty-findings surface.
  std::string Expected =
      "{\n"
      "\"schema\": \"dcb-analysis-v1\",\n"
      "\"target\": \"" + Listing + "\",\n"
      "\"mode\": \"bounds\",\n"
      "\"shape\": {\"threads\": 32, \"blocks\": 2, \"warp_size\": 32, "
      "\"global\": 65536, \"shared\": 16384, \"local\": 4096},\n"
      "\"kernels\": [{\"name\": \"clean\", \"arch\": \"sm_52\"}],\n"
      "\"findings\": [\n"
      "],\n"
      "\"errors\": 0,\n"
      "\"warnings\": 0\n"
      "}\n";
  ASSERT_EQ(runCmd(Dcb + " analyze --bounds " + Listing + " --json > " +
                   Work + "/bounds.json"),
            0);
  EXPECT_EQ(slurp(Work + "/bounds.json"), Expected);
}

TEST(DcbTool, AnalyzeFailOnSelectsExitSeverity) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_52 -o " + Work +
                   "/fo.cubin > /dev/null"),
            0);

  // The suite contains racy kernels (error findings) and bounds warnings:
  // --fail-on picks which severity flips the exit code; output bytes are
  // unaffected.
  EXPECT_NE(runCmd(Dcb + " analyze --races " + Work +
                   "/fo.cubin > /dev/null"),
            0);
  EXPECT_EQ(runCmd(Dcb + " analyze --races --fail-on never " + Work +
                   "/fo.cubin > /dev/null"),
            0);
  // One bounds finding is an error: pathfinder's `LDS R7, [R4-0x4]` reads
  // below address 0 at tid 0, where the VM faults too. Without that
  // kernel only warnings remain.
  EXPECT_NE(runCmd(Dcb + " analyze --bounds " + Work +
                   "/fo.cubin > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/fo.cubin > " + Work +
                   "/fo.sass"),
            0);
  std::string Listing = slurp(Work + "/fo.sass");
  const size_t Begin = Listing.find("\t\tFunction : pathfinder\n");
  ASSERT_NE(Begin, std::string::npos);
  const size_t End = Listing.find("\t\tFunction :", Begin + 1);
  Listing.erase(Begin, End == std::string::npos ? End : End - Begin);
  std::ofstream(Work + "/fo_warnings.sass") << Listing;
  EXPECT_EQ(runCmd(Dcb + " analyze --bounds " + Work +
                   "/fo_warnings.sass > /dev/null"),
            0) << "warnings alone do not fail the default threshold";
  EXPECT_NE(runCmd(Dcb + " analyze --bounds --fail-on warning " + Work +
                   "/fo_warnings.sass > /dev/null"),
            0);
  EXPECT_EQ(runCmd(Dcb + " lint " + Work +
                   "/fo.cubin --fail-on warning > /dev/null"),
            0) << "a clean lint is clean at every threshold";
  EXPECT_NE(runCmd(Dcb + " analyze --races --fail-on banana " + Work +
                   "/fo.cubin 2> /dev/null"),
            0);
}

TEST(DcbTool, ExecWatchSharedReportsConflicts) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_52 -o " + Work +
                   "/ws.cubin > /dev/null"),
            0);

  // Without the flag the summary line is byte-stable (no new field); with
  // it, the racy nw kernel reports conflicts and the barriered matrixMul
  // reports none.
  ASSERT_EQ(runCmd(Dcb + " exec " + Work + "/ws.cubin nw > " + Work +
                   "/nw.txt"),
            0);
  EXPECT_EQ(slurp(Work + "/nw.txt").find("shared_conflicts"),
            std::string::npos);
  ASSERT_EQ(runCmd(Dcb + " exec " + Work + "/ws.cubin nw --watch-shared > " +
                   Work + "/nw_watch.txt"),
            0);
  std::string Watched = slurp(Work + "/nw_watch.txt");
  EXPECT_NE(Watched.find(" shared_conflicts="), std::string::npos);
  EXPECT_EQ(Watched.find(" shared_conflicts=0"), std::string::npos)
      << "nw races on shared memory: " << Watched;
  ASSERT_EQ(runCmd(Dcb + " exec " + Work +
                   "/ws.cubin matrixMul --watch-shared > " + Work +
                   "/mm_watch.txt"),
            0);
  EXPECT_NE(slurp(Work + "/mm_watch.txt").find(" shared_conflicts=0"),
            std::string::npos);
}

TEST(DcbTool, AsmJobsOutputIsByteIdentical) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_61 -o " + Work +
                   "/j.cubin > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/j.cubin > " + Work +
                   "/j.sass"),
            0);
  ASSERT_EQ(runCmd(Dcb + " analyze " + Work + "/j.sass -o " + Work +
                   "/j.db > /dev/null"),
            0);
  for (const char *Jobs : {"1", "4", "0"}) {
    ASSERT_EQ(runCmd(Dcb + " asm --db " + Work + "/j.db --jobs " + Jobs +
                     " " + Work + "/j.sass > " + Work + "/j" + Jobs +
                     ".hex"),
              0);
  }
  std::string Serial = slurp(Work + "/j1.hex");
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, slurp(Work + "/j4.hex"));
  EXPECT_EQ(Serial, slurp(Work + "/j0.hex"));
  EXPECT_NE(runCmd(Dcb + " asm --db " + Work + "/j.db --jobs banana " +
                   Work + "/j.sass 2> /dev/null"),
            0);
}

TEST(DcbTool, DisasmJobsOutputIsByteIdentical) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_61 -o " + Work +
                   "/d.cubin > /dev/null"),
            0);
  for (const char *Jobs : {"1", "4", "0"}) {
    ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/d.cubin --jobs " +
                     std::string(Jobs) + " > " + Work + "/d" + Jobs +
                     ".sass"),
              0);
  }
  std::string Serial = slurp(Work + "/d1.sass");
  EXPECT_NE(Serial.find("code for sm_61"), std::string::npos);
  EXPECT_EQ(Serial, slurp(Work + "/d4.sass"));
  EXPECT_EQ(Serial, slurp(Work + "/d0.sass"));
  // And the flag's output equals the default serial path.
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/d.cubin > " + Work +
                   "/dplain.sass"),
            0);
  EXPECT_EQ(Serial, slurp(Work + "/dplain.sass"));
  EXPECT_NE(runCmd(Dcb + " disasm " + Work + "/d.cubin --jobs banana" +
                   " 2> /dev/null"),
            0);
}

TEST(DcbTool, RejectsBadInput) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  EXPECT_NE(runCmd(Dcb + " 2> /dev/null"), 0);
  EXPECT_NE(runCmd(Dcb + " make-suite sm_99 -o /dev/null 2> /dev/null"), 0);
  EXPECT_NE(runCmd(Dcb + " disasm /nonexistent 2> /dev/null"), 0);
  ASSERT_EQ(runCmd("echo garbage > " + Work + "/bad.db"), 0);
  EXPECT_NE(runCmd(Dcb + " genasm --db " + Work +
                   "/bad.db -o /dev/null 2> /dev/null"),
            0);

  // Each of these exits 1 with a message, never with a signal or a 0.
  auto expectError = [&](const std::string &Args, const std::string &Msg) {
    int Status = runCmd(Dcb + " " + Args + " > /dev/null 2> " + Work +
                        "/bad.err");
    ASSERT_TRUE(WIFEXITED(Status)) << Args;
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Args;
    EXPECT_NE(slurp(Work + "/bad.err").find(Msg), std::string::npos)
        << Args << ": " << slurp(Work + "/bad.err");
  };
  // An instruction where a SCHI word belongs.
  std::ofstream(Work + "/schi.sass")
      << "code for sm_35\n\tFunction : k\n"
         "        /*0000*/ MOV R1, R2; /* 0x0000000000000000 */\n"
         "        /*0008*/ /* 0x0800000000000000 */\n"
         "        /*0010*/ EXIT; /* 0x0000000000000000 */\n";
  expectError("lint " + Work + "/schi.sass",
              "instruction at 0x0 in kernel k");
  expectError("exec " + Work + "/schi.sass all",
              "instruction at 0x0 in kernel k");
  // Addresses that repeat or go backwards.
  std::ofstream(Work + "/dup.sass")
      << "code for sm_35\n\tFunction : k\n"
         "        /*0008*/ MOV R1, R2; /* 0x0000000000000000 */\n"
         "        /*0008*/ EXIT; /* 0x0000000000000000 */\n";
  std::ofstream(Work + "/back.sass")
      << "code for sm_35\n\tFunction : k\n"
         "        /*0010*/ EXIT; /* 0x0000000000000000 */\n"
         "        /*0008*/ MOV R1, R2; /* 0x0000000000000000 */\n";
  for (const char *Cmd : {"lint ", "exec "}) {
    const std::string Tail = std::string(Cmd) == "exec " ? " all" : "";
    expectError(Cmd + Work + "/dup.sass" + Tail,
                "instruction at 0x8 in kernel k does not follow 0x8");
    expectError(Cmd + Work + "/back.sass" + Tail,
                "instruction at 0x8 in kernel k does not follow 0x10");
  }
  // Output that cannot be written, and input that is a directory.
  expectError("make-suite sm_35 -o /dev/full", "No space left on device");
  expectError("disasm " + Work, "Is a directory");
  // A flag the command does not read is refused, never run past or taken
  // with the next argument as its value.
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work + "/s35.cubin > " +
                   "/dev/null"),
            0);
  const std::string S35 = Work + "/s35.cubin";
  expectError("exec " + S35 + " nn --thread 64", "exec does not take --thread");
  expectError("disasm " + S35 + " --job 2", "disasm does not take --job");
  expectError("lint " + S35 + " --fail-onn error",
              "lint does not take --fail-onn");
  expectError("lint --bogus " + S35, "lint does not take --bogus");
  expectError("flip " + S35 + " --jobs 2 --db x -o y",
              "flip does not take --jobs");
  expectError("analyze --liveness " + S35 + " --json=out --trace-x=1",
              "analyze does not take --trace-x");
  expectError("ir " + S35 + " nn -o out", "ir does not take -o");
  // Each analyze mode reads only its own flags, not the union of all five.
  ASSERT_EQ(runCmd(Dcb + " disasm " + S35 + " > " + Work + "/s35.sass"), 0);
  expectError("analyze --liveness " + S35 + " --fail-on warning --threads 0 " +
                  "--db x.db -o y",
              "analyze --liveness does not take --");
  expectError("analyze --liveness " + S35 + " --fail-on warning",
              "analyze --liveness does not take --fail-on");
  expectError("analyze --hazards " + S35 + " --threads 7 --warp-size 3",
              "analyze --hazards does not take --");
  expectError("analyze " + Work + "/s35.sass -o " + Work +
                  "/s35.db --json --fail-on never --threads 4",
              "analyze does not take --");
  expectError("analyze --types " + S35 + " --threads 0",
              "analyze --types does not take --threads");
  expectError("analyze --races " + S35 + " --db x.db",
              "analyze --races does not take --db");
}

// --- Telemetry surface (--stats / --trace / stats) --------------------------

TEST(DcbTelemetry, StatsDoesNotChangeStdout) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_50 -o " + Work +
                   "/tel.cubin > /dev/null"),
            0);

  // disasm: stdout must be byte-identical with and without --stats.
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/tel.cubin > " + Work +
                   "/tel_plain.sass"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/tel.cubin --stats > " + Work +
                   "/tel_stats.sass 2> " + Work + "/tel_stats.txt"),
            0);
  EXPECT_EQ(slurp(Work + "/tel_plain.sass"), slurp(Work + "/tel_stats.sass"));
  // The stderr table names the decode-path counters.
  std::string Table = slurp(Work + "/tel_stats.txt");
  EXPECT_NE(Table.find("counters:"), std::string::npos);
  EXPECT_NE(Table.find("isa.decode.dispatch"), std::string::npos);

  // asm: same contract.
  ASSERT_EQ(runCmd(Dcb + " analyze " + Work + "/tel_plain.sass -o " + Work +
                   "/tel.db > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " asm --db " + Work + "/tel.db " + Work +
                   "/tel_plain.sass > " + Work + "/tel_plain.hex"),
            0);
  ASSERT_EQ(runCmd(Dcb + " asm --db " + Work + "/tel.db " + Work +
                   "/tel_plain.sass --stats > " + Work +
                   "/tel_stats.hex 2> /dev/null"),
            0);
  EXPECT_EQ(slurp(Work + "/tel_plain.hex"), slurp(Work + "/tel_stats.hex"));

  // flip: identical stdout AND identical learned database.
  ASSERT_EQ(runCmd(Dcb + " flip " + Work + "/tel.cubin --db " + Work +
                   "/tel.db -o " + Work + "/tel_plain_out.db > " + Work +
                   "/tel_flip_plain.txt"),
            0);
  ASSERT_EQ(runCmd(Dcb + " flip " + Work + "/tel.cubin --db " + Work +
                   "/tel.db -o " + Work + "/tel_stats_out.db --stats > " +
                   Work + "/tel_flip_stats.txt 2> " + Work +
                   "/tel_flip_table.txt"),
            0);
  EXPECT_EQ(slurp(Work + "/tel_flip_plain.txt"),
            slurp(Work + "/tel_flip_stats.txt"));
  EXPECT_EQ(slurp(Work + "/tel_plain_out.db"),
            slurp(Work + "/tel_stats_out.db"));
}

TEST(DcbTelemetry, FlipStatsTableSatisfiesInvariant) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_50 -o " + Work +
                   "/inv.cubin > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/inv.cubin > " + Work +
                   "/inv.sass"),
            0);
  ASSERT_EQ(runCmd(Dcb + " analyze " + Work + "/inv.sass -o " + Work +
                   "/inv.db > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " flip " + Work + "/inv.cubin --db " + Work +
                   "/inv.db -o /dev/null --stats > /dev/null 2> " + Work +
                   "/inv_table.txt"),
            0);
  std::string Table = slurp(Work + "/inv_table.txt");

  auto counterValue = [&Table](const std::string &Name) -> long long {
    size_t Pos = Table.find(Name);
    EXPECT_NE(Pos, std::string::npos) << "missing counter " << Name;
    if (Pos == std::string::npos)
      return -1;
    return std::stoll(Table.substr(Pos + Name.size()));
  };
  long long Tried = counterValue("bitflip.variants_tried");
  long long Crashes = counterValue("bitflip.crashes");
  long long Accepted = counterValue("bitflip.accepted");
  long long Rejected = counterValue("bitflip.rejected");
  long long CacheHits = counterValue("bitflip.cache_hits");
  EXPECT_GT(Tried, 0);
  EXPECT_EQ(Tried, Crashes + Accepted + Rejected + CacheHits);
}

TEST(DcbTelemetry, TraceAndStatsFilesAreRenderable) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_50 -o " + Work +
                   "/tr.cubin > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/tr.cubin --trace=" + Work +
                   "/tr_trace.json --stats=" + Work +
                   "/tr_stats.json > /dev/null"),
            0);
  std::string Trace = slurp(Work + "/tr_trace.json");
  EXPECT_EQ(Trace.find("{\"traceEvents\": ["), 0u);
  // The decode path must be visible in the trace: the kernel batch, the
  // per-kernel decode, and the decode-index build.
  EXPECT_NE(Trace.find("\"taskpool.batch\""), std::string::npos);
  EXPECT_NE(Trace.find("\"vendor.decodeKernelCode\""), std::string::npos);
  EXPECT_NE(Trace.find("\"isa.freezeDecode\""), std::string::npos);

  // `dcb stats` renders the saved JSON back into the table layout.
  ASSERT_EQ(runCmd(Dcb + " stats " + Work + "/tr_stats.json > " + Work +
                   "/tr_rendered.txt"),
            0);
  std::string Rendered = slurp(Work + "/tr_rendered.txt");
  EXPECT_NE(Rendered.find("isa.decode.dispatch"), std::string::npos);
  EXPECT_NE(runCmd(Dcb + " stats /nonexistent 2> /dev/null"), 0);
}

TEST(DcbTelemetry, DisasmStatsExportOnlyDecodeMetricsThatReport) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_50 -o " + Work +
                   "/dm.cubin > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/dm.cubin --stats=" + Work +
                   "/dm_stats.json > /dev/null"),
            0);
  std::string Stats = slurp(Work + "/dm_stats.json");
  // The per-arch index build, which perfbench's cli workload sums.
  EXPECT_NE(Stats.find("\"isa.freeze_decode_ns\""), std::string::npos);
  // No fallback scan is left to count, and a gauge written once per arch
  // shows only the last arch built.
  for (const char *Gone :
       {"isa.decode.linear_fallback", "isa.decode_index.buckets",
        "isa.decode_index.entries", "isa.decode_index.selector_bits"})
    EXPECT_EQ(Stats.find(Gone), std::string::npos) << Gone;
}

// --- The VM surface (exec / diffexec) ---------------------------------------

TEST(DcbTool, ExecPrintsOneLinePerKernel) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work +
                   "/vm.cubin > /dev/null"),
            0);

  // reduction's deliberate indirect branch makes `exec all` exit 1; every
  // other kernel still prints its summary line, and a second run prints
  // the same bytes.
  EXPECT_NE(runCmd(Dcb + " exec " + Work + "/vm.cubin all > " + Work +
                   "/exec_all.txt"),
            0);
  EXPECT_NE(runCmd(Dcb + " exec " + Work + "/vm.cubin all > " + Work +
                   "/exec_again.txt"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/vm.cubin > " + Work +
                   "/vm.sass"),
            0);
  const std::string Listing = slurp(Work + "/vm.sass");
  size_t Kernels = 0;
  for (size_t At = Listing.find("Function :"); At != std::string::npos;
       At = Listing.find("Function :", At + 1))
    ++Kernels;
  const std::string All = slurp(Work + "/exec_all.txt");
  EXPECT_EQ(static_cast<size_t>(std::count(All.begin(), All.end(), '\n')),
            Kernels);
  EXPECT_NE(All.find("matrixMul: issues="), std::string::npos);
  EXPECT_NE(All.find("reduction: error: vm: indirect branch"),
            std::string::npos);
  EXPECT_EQ(All, slurp(Work + "/exec_again.txt"));

  // A single supported kernel exits 0; an unknown kernel does not.
  EXPECT_EQ(runCmd(Dcb + " exec " + Work +
                   "/vm.cubin matrixMul > /dev/null"),
            0);
  EXPECT_NE(runCmd(Dcb + " exec " + Work +
                   "/vm.cubin nosuchkernel > /dev/null 2>&1"),
            0);
}

TEST(DcbTool, ExecRejectsAnAbsurdLaunchShape) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work +
                   "/shape.cubin > /dev/null"),
            0);

  // The VM's launch caps turn the shape into the kernel's `vm:` error and
  // exit 1, instead of an allocation that aborts the process.
  int Status = runCmd(Dcb + " exec " + Work +
                      "/shape.cubin bfs --blocks 4294967295 > " + Work +
                      "/shape.txt 2>&1");
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 1);
  EXPECT_EQ(slurp(Work + "/shape.txt"),
            "bfs: error: vm: at most 1024 blocks per grid, got 4294967295\n");

  // A count that does not fit the launch fields is a bad flag value.
  Status = runCmd(Dcb + " exec " + Work +
                  "/shape.cubin bfs --blocks 4294967296 > " + Work +
                  "/shape.txt 2>&1");
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 1);
  EXPECT_NE(slurp(Work + "/shape.txt").find("bad --blocks value"),
            std::string::npos);

  // analyze reads the launch flags through the same parser, and refuses a
  // warp size the VM would refuse.
  Status = runCmd(Dcb + " analyze --bounds " + Work +
                  "/shape.cubin --threads 4294967297 > " + Work +
                  "/shape.txt 2>&1");
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 1);
  EXPECT_NE(slurp(Work + "/shape.txt").find("bad --threads value"),
            std::string::npos);
  Status = runCmd(Dcb + " analyze --races " + Work +
                  "/shape.cubin --warp-size 33 > " + Work +
                  "/shape.txt 2>&1");
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 1);
  EXPECT_EQ(slurp(Work + "/shape.txt"),
            "dcb: warp size must be between 1 and 32, got 33\n");
}

TEST(DcbTool, NumericFlagsThatDoNotFitAreRefused) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work +
                   "/nf.cubin > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/nf.cubin > " + Work +
                   "/nf.sass"),
            0);
  ASSERT_EQ(runCmd(Dcb + " analyze " + Work + "/nf.sass -o " + Work +
                   "/nf.db > /dev/null"),
            0);

  // Exits 1 with "bad <flag> value" instead of running with the count cut
  // to 32 bits (2^32 + 1 lanes ran as one) or a cache size shifted past
  // 64 bits. `serve` refuses before it binds, so a timeout means it ran.
  auto refused = [&](const std::string &Args, const std::string &Flag) {
    int Status = runCmd("timeout 20 " + Dcb + " " + Args + " > " + Work +
                        "/nf.txt 2>&1");
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 1)
        << Args << ": status " << Status;
    EXPECT_NE(slurp(Work + "/nf.txt").find("bad " + Flag + " value"),
              std::string::npos)
        << Args << ": " << slurp(Work + "/nf.txt");
  };
  for (const char *Jobs : {"4294967296", "4294967297"}) {
    refused("disasm " + Work + "/nf.cubin --jobs " + Jobs, "--jobs");
    refused("asm --db " + Work + "/nf.db " + Work + "/nf.sass --jobs " + Jobs,
            "--jobs");
    refused("verify --db " + Work + "/nf.db " + Work + "/nf.sass --jobs " +
                Jobs,
            "--jobs");
    refused("serve --jobs " + std::string(Jobs), "--jobs");
    refused("serve --shards " + std::string(Jobs), "--shards");
  }
  refused("serve --cache-mb 17592186044416", "--cache-mb"); // 2^44 MiB.
  refused("serve --port 65536", "--port");
}

TEST(DcbTool, DiffexecInstrumentRoundTrip) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work +
                   "/de.cubin > /dev/null"),
            0);

  // A binary diffed against itself is clean.
  ASSERT_EQ(runCmd(Dcb + " diffexec " + Work + "/de.cubin " + Work +
                   "/de.cubin --seeds 2 > " + Work + "/de_self.txt"),
            0);
  EXPECT_NE(slurp(Work + "/de_self.txt").find("0 mismatched"),
            std::string::npos);

  // The paper's Fig. 12 loop: learn encodings, instrument (clear two
  // registers at every exit), then confirm the transformed binary is
  // observably equivalent on memory — and observably different once the
  // comparison includes the cleared registers.
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/de.cubin > " + Work +
                   "/de.sass"),
            0);
  ASSERT_EQ(runCmd(Dcb + " analyze " + Work + "/de.sass -o " + Work +
                   "/de1.db > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " flip " + Work + "/de.cubin --db " + Work +
                   "/de1.db -o " + Work + "/de.db > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " instrument " + Work + "/de.cubin --db " + Work +
                   "/de.db --clear-regs 4,5 -o " + Work +
                   "/de.instr.cubin > /dev/null"),
            0);

  ASSERT_EQ(runCmd(Dcb + " diffexec " + Work + "/de.cubin " + Work +
                   "/de.instr.cubin --seeds 2 > " + Work + "/de_mem.txt"),
            0);
  EXPECT_NE(slurp(Work + "/de_mem.txt").find("0 mismatched"),
            std::string::npos);

  EXPECT_NE(runCmd(Dcb + " diffexec " + Work + "/de.cubin " + Work +
                   "/de.instr.cubin --seeds 2 --regs > " + Work +
                   "/de_regs.txt"),
            0);
  EXPECT_NE(slurp(Work + "/de_regs.txt").find("final registers differ"),
            std::string::npos);
}

TEST(DcbTelemetry, ExecStatsExposeVmCounters) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir();
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work +
                   "/vt.cubin > /dev/null"),
            0);

  // --stats never changes stdout.
  ASSERT_EQ(runCmd(Dcb + " exec " + Work + "/vt.cubin matrixMul > " + Work +
                   "/vt_plain.txt"),
            0);
  ASSERT_EQ(runCmd(Dcb + " exec " + Work + "/vt.cubin matrixMul --stats > " +
                   Work + "/vt_stats.txt 2> " + Work + "/vt_table.txt"),
            0);
  EXPECT_EQ(slurp(Work + "/vt_plain.txt"), slurp(Work + "/vt_stats.txt"));

  std::string Table = slurp(Work + "/vt_table.txt");
  EXPECT_NE(Table.find("vm.issues"), std::string::npos);
  EXPECT_NE(Table.find("vm.lane_steps"), std::string::npos);
  EXPECT_NE(Table.find("vm.barriers"), std::string::npos);
  EXPECT_NE(Table.find("vm.blocks"), std::string::npos);
}

TEST(DcbServe, DaemonSmokeOverPortFile) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir() + "/serve";
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work +
                   "/suite.cubin > /dev/null"),
            0);
  ASSERT_EQ(runCmd(Dcb + " disasm " + Work + "/suite.cubin > " + Work +
                   "/oneshot.txt"),
            0);

  // Start the daemon on an ephemeral port; the bound port lands in the
  // port file. `sh -c ... &` detaches it; the PID file lets us reap it.
  ASSERT_EQ(runCmd("rm -f " + Work + "/port.txt && sh -c '" + Dcb +
                   " serve --port-file " + Work + "/port.txt --cache-mb 8 2> " +
                   Work + "/serve.log & echo $! > " + Work + "/serve.pid'"),
            0);
  bool PortUp = false;
  for (int I = 0; I < 100 && !PortUp; ++I) {
    PortUp = !slurp(Work + "/port.txt").empty();
    if (!PortUp)
      runCmd("sleep 0.1");
  }
  ASSERT_TRUE(PortUp) << slurp(Work + "/serve.log");

  // A served disasm must print the one-shot bytes; a repeat must too (and
  // is a cache hit server-side).
  EXPECT_EQ(runCmd(Dcb + " client disasm " + Work + "/suite.cubin" +
                   " --port-file " + Work + "/port.txt > " + Work +
                   "/served.txt"),
            0);
  EXPECT_EQ(slurp(Work + "/served.txt"), slurp(Work + "/oneshot.txt"));
  EXPECT_EQ(runCmd(Dcb + " client disasm " + Work + "/suite.cubin" +
                   " --port-file " + Work + "/port.txt > " + Work +
                   "/served2.txt"),
            0);
  EXPECT_EQ(slurp(Work + "/served2.txt"), slurp(Work + "/oneshot.txt"));

  EXPECT_EQ(runCmd(Dcb + " client stats --port-file " + Work +
                   "/port.txt > " + Work + "/stats.txt"),
            0);
  std::string Stats = slurp(Work + "/stats.txt");
  EXPECT_NE(Stats.find("\"hits\":1"), std::string::npos) << Stats;

  // `shutdown` stops the daemon; give it a moment, then make sure the
  // process is really gone (kill -0 failing = exited).
  EXPECT_EQ(runCmd(Dcb + " client shutdown --port-file " + Work +
                   "/port.txt > /dev/null"),
            0);
  bool Exited = false;
  for (int I = 0; I < 100 && !Exited; ++I) {
    Exited = runCmd("kill -0 $(cat " + Work + "/serve.pid) 2> /dev/null") != 0;
    if (!Exited)
      runCmd("sleep 0.1");
  }
  EXPECT_TRUE(Exited) << "daemon did not exit after the shutdown op";
  runCmd("kill $(cat " + Work + "/serve.pid) 2> /dev/null");
}

TEST(DcbServe, Sigusr1DumpsStatsAndTraceWithoutStopping) {
  const std::string Dcb = toolPath();
  const std::string Work = workDir() + "/serve_usr1";
  ASSERT_EQ(runCmd("mkdir -p " + Work), 0);
  ASSERT_EQ(runCmd(Dcb + " make-suite sm_35 -o " + Work +
                   "/suite.cubin > /dev/null"),
            0);

  // A daemon with --stats/--trace destinations: SIGUSR1 must dump both
  // files while the process keeps serving. Dumps left by an earlier run
  // would satisfy the wait below before the daemon wrote anything.
  ASSERT_EQ(runCmd("rm -f " + Work + "/port.txt " + Work +
                   "/dump_stats.json " + Work + "/dump_trace.json && sh -c '" +
                   Dcb + " serve --port-file " + Work +
                   "/port.txt --cache-mb 8 --stats=" + Work +
                   "/dump_stats.json --trace=" + Work +
                   "/dump_trace.json 2> " + Work + "/serve.log & echo $! > " +
                   Work + "/serve.pid'"),
            0);
  bool PortUp = false;
  for (int I = 0; I < 100 && !PortUp; ++I) {
    PortUp = !slurp(Work + "/port.txt").empty();
    if (!PortUp)
      runCmd("sleep 0.1");
  }
  ASSERT_TRUE(PortUp) << slurp(Work + "/serve.log");

  // Some traffic first, so the dumped snapshot has something to show.
  EXPECT_EQ(runCmd(Dcb + " client disasm " + Work + "/suite.cubin" +
                   " --port-file " + Work + "/port.txt > /dev/null"),
            0);

  ASSERT_EQ(runCmd("kill -USR1 $(cat " + Work + "/serve.pid)"), 0);
  bool Dumped = false;
  for (int I = 0; I < 100 && !Dumped; ++I) {
    Dumped = !slurp(Work + "/dump_stats.json").empty() &&
             !slurp(Work + "/dump_trace.json").empty();
    if (!Dumped)
      runCmd("sleep 0.1");
  }
  ASSERT_TRUE(Dumped) << slurp(Work + "/serve.log");

  // The stats dump is a valid dcb-stats-v1 document: `dcb stats` renders
  // it, and it carries provenance either way. The trace dump is the
  // flight recorder's ring as a Chrome trace_event document.
  std::string StatsDoc = slurp(Work + "/dump_stats.json");
  EXPECT_NE(StatsDoc.find("\"dcb-stats-v1\""), std::string::npos) << StatsDoc;
  EXPECT_NE(StatsDoc.find("\"provenance\""), std::string::npos);
  ASSERT_EQ(runCmd(Dcb + " stats " + Work + "/dump_stats.json > " + Work +
                   "/dump_rendered.txt"),
            0);
  // The daemon enables counters and the flight recorder unconditionally,
  // so the served disasm shows up in the snapshot and the ring.
  EXPECT_NE(StatsDoc.find("serve.request_ns"), std::string::npos) << StatsDoc;
  EXPECT_NE(slurp(Work + "/dump_trace.json").find("\"serve.op\""),
            std::string::npos);
  EXPECT_EQ(slurp(Work + "/dump_trace.json").find("{\"traceEvents\": ["), 0u);

  // The dump is non-fatal: the daemon still answers, then shuts down.
  EXPECT_EQ(runCmd(Dcb + " client ping --port-file " + Work +
                   "/port.txt > /dev/null"),
            0);
  EXPECT_EQ(runCmd(Dcb + " client shutdown --port-file " + Work +
                   "/port.txt > /dev/null"),
            0);
  bool Exited = false;
  for (int I = 0; I < 100 && !Exited; ++I) {
    Exited = runCmd("kill -0 $(cat " + Work + "/serve.pid) 2> /dev/null") != 0;
    if (!Exited)
      runCmd("sleep 0.1");
  }
  EXPECT_TRUE(Exited) << "daemon did not exit after the shutdown op";
  runCmd("kill $(cat " + Work + "/serve.pid) 2> /dev/null");
}
