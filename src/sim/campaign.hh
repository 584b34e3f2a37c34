/**
 * @file
 * Crash-resumable sweep campaigns over the checkpoint subsystem.
 *
 * A campaign is an ordered list of named sweep points executed inside a
 * campaign directory. Progress is journaled to an append-only JSONL
 * manifest (`campaign.jsonl`): one `start` record per attempt, one
 * `done` record per finished point carrying every RunResult member
 * (sim::forEachField) with doubles as IEEE-754 bit patterns, so a
 * replayed point returns exactly what its live run returned and a
 * resumed campaign reproduces the consolidated report byte for byte.
 * The journal is read back through obs/json_reader.hh, and a record
 * counts only when its line parses whole. Each in-flight point also
 * writes periodic hash-verified checkpoints (`<point>.ckpt`), so a
 * campaign killed mid-run resumes with the same command line:
 * completed points are replayed from the journal, the in-flight point
 * restores its checkpoint and continues bit-identically, and a point
 * that keeps crashing is quarantined after max_attempts instead of
 * wedging the campaign forever.
 *
 * Warm-state reuse: points that share a warm family (identical config,
 * application and seed — the snapshot config fingerprint enforces it)
 * run their first warmup_cycles once, checkpoint, and every family
 * member forks from that snapshot instead of re-simulating the warmup.
 */

#ifndef FSOI_SIM_CAMPAIGN_HH
#define FSOI_SIM_CAMPAIGN_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sweep_runner.hh"

namespace fsoi::sim {

/** One named, resumable point of a campaign. */
struct CampaignPoint
{
    /** Unique within the campaign, and only [A-Za-z0-9._-]: it names
     *  the point's checkpoint file and journal records. run() dies on
     *  a name that breaks either rule. */
    std::string name;
    SweepJob job;
    /**
     * Non-empty = share a post-warmup snapshot with every point of the
     * same family. Family members must be identical up to the warmup
     * cycle (same config, app, seed); differing runtime horizons
     * (max_cycles) are the intended use. Same character set as name.
     */
    std::string warm_family;
};

struct CampaignConfig
{
    std::string dir;                  //!< journal + checkpoint directory
    Cycle checkpoint_every = 500'000; //!< per-point checkpoint period
    int max_attempts = 3;             //!< quarantine threshold
    Cycle warmup_cycles = 0;          //!< 0 = no warm-state reuse
    int jobs = 1;                     //!< worker threads; 0 = host CPUs
};

/** What one point contributed to the consolidated report. */
struct CampaignOutcome
{
    std::string name;
    int attempts = 0;
    bool quarantined = false;
    RunResult result; //!< meaningless when quarantined
};

class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignConfig config);
    ~CampaignRunner();

    CampaignRunner(const CampaignRunner &) = delete;
    CampaignRunner &operator=(const CampaignRunner &) = delete;

    /**
     * Run (or resume) the campaign. Outcomes come back in point order
     * regardless of jobs, and a resumed campaign's outcomes are
     * bit-identical to an uninterrupted one's.
     */
    std::vector<CampaignOutcome> run(std::vector<CampaignPoint> points);

    /**
     * Consolidated campaign report: stable field order, doubles
     * printed with %.17g from their exact bit patterns, so resumed
     * and uninterrupted campaigns emit byte-identical files.
     */
    static void writeJson(std::ostream &os,
                          const std::vector<CampaignOutcome> &outcomes);

  private:
    struct Journal;

    CampaignOutcome runPoint(const CampaignPoint &point, int attempt);
    std::string pointCheckpoint(const std::string &name) const;
    std::string warmCheckpoint(const std::string &family) const;
    /** Ensure the family's post-warmup snapshot exists; returns its
     *  path, or empty when the warmup completed the run outright. */
    std::string ensureWarmState(const CampaignPoint &point);

    CampaignConfig config_;
    std::unique_ptr<Journal> journal_;
};

} // namespace fsoi::sim

#endif // FSOI_SIM_CAMPAIGN_HH
